package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"sst/internal/dram"
	"sst/internal/power"
)

// sweepApps is every app SweepMachine sizes.
var sweepApps = []string{"hpccg", "lulesh", "stencil", "stream", "fea", "gups", "minimd"}

// resetPointKeys empties the point-key memo so a test starts cold.
func resetPointKeys() {
	pointKeys.Lock()
	pointKeys.m = nil
	pointKeys.Unlock()
}

func pointKeyLen() int {
	pointKeys.Lock()
	defer pointKeys.Unlock()
	return len(pointKeys.m)
}

// hashPoint is the oracle: the key a freshly built machine hashes to.
func hashPoint(t *testing.T, app, tech string, width int, scale Scale) string {
	t.Helper()
	key, err := SweepMachine(app, tech, width, scale).CanonicalHash()
	if err != nil {
		t.Fatalf("%s/%s/w%d: %v", app, tech, width, err)
	}
	return key
}

func presetNames() []string {
	var techs []string
	for name := range dram.Presets() {
		techs = append(techs, name)
	}
	sort.Strings(techs)
	return techs
}

// TestPointKeyMatchesHash: the memoized key of every app x tech x width x
// scale is the canonical hash of the machine SweepMachine builds, on the
// call that fills the memo and on the call that reads it.
func TestPointKeyMatchesHash(t *testing.T) {
	resetPointKeys()
	for _, pass := range []string{"cold", "warm"} {
		for _, app := range sweepApps {
			for _, tech := range presetNames() {
				for _, w := range []int{1, 2, 3, 4, 8, 16} {
					for _, scale := range []Scale{Small, Full} {
						got, err := pointKey(app, tech, w, scale)
						if err != nil {
							t.Fatalf("%s: %s/%s/w%d: %v", pass, app, tech, w, err)
						}
						if want := hashPoint(t, app, tech, w, scale); got != want {
							t.Fatalf("%s: %s/%s/w%d scale %d: key %s, hash %s", pass, app, tech, w, scale, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPointKeyBounded: inserting more distinct points than the cap never
// leaves more than pointKeyCap entries, and keys stay exact across the
// clear.
func TestPointKeyBounded(t *testing.T) {
	resetPointKeys()
	n := pointKeyCap + pointKeyCap/4
	for w := 1; w <= n; w++ {
		key, err := pointKey("stream", "ddr3-1333", w, Small)
		if err != nil {
			t.Fatal(err)
		}
		if l := pointKeyLen(); l > pointKeyCap {
			t.Fatalf("after %d inserts the memo holds %d entries, cap %d", w, l, pointKeyCap)
		}
		if w%97 == 0 || w == n {
			if want := hashPoint(t, "stream", "ddr3-1333", w, Small); key != want {
				t.Fatalf("w%d: key %s, hash %s", w, key, want)
			}
		}
	}
	for _, w := range []int{1, pointKeyCap, n} {
		key, err := pointKey("stream", "ddr3-1333", w, Small)
		if err != nil {
			t.Fatal(err)
		}
		if want := hashPoint(t, "stream", "ddr3-1333", w, Small); key != want {
			t.Fatalf("w%d after the clear: key %s, hash %s", w, key, want)
		}
	}
}

// TestPointKeyErrorNotMemoized: a point whose machine does not validate
// fails with the hash's own error on every call and leaves no entry.
func TestPointKeyErrorNotMemoized(t *testing.T) {
	resetPointKeys()
	_, want := SweepMachine("nosuchapp", "ddr3-1333", 2, Small).CanonicalHash()
	if want == nil {
		t.Fatal("an unknown app hashed")
	}
	for call := 0; call < 3; call++ {
		key, err := pointKey("nosuchapp", "ddr3-1333", 2, Small)
		if err == nil || err.Error() != want.Error() || key != "" {
			t.Fatalf("call %d: key %q, err %v; want %v", call, key, err, want)
		}
		if l := pointKeyLen(); l != 0 {
			t.Fatalf("call %d: memo holds %d entries after an error", call, l)
		}
	}
}

// TestPointKeyConcurrent: goroutines keying overlapping points at once all
// get exact keys (run under -race).
func TestPointKeyConcurrent(t *testing.T) {
	resetPointKeys()
	techs := []string{"ddr3-1333", "gddr5-4000"}
	widths := []int{1, 2, 4, 8}
	want := map[pointID]string{}
	for _, app := range sweepApps {
		for _, tech := range techs {
			for _, w := range widths {
				want[pointID{dseKey{app, tech, w}, Small}] = hashPoint(t, app, tech, w, Small)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				// Each goroutine starts at a different app, so first
				// inserts of one key race with reads of it.
				for a := range sweepApps {
					app := sweepApps[(a+g)%len(sweepApps)]
					for _, tech := range techs {
						for _, w := range widths {
							key, err := pointKey(app, tech, w, Small)
							if err != nil || key != want[pointID{dseKey{app, tech, w}, Small}] {
								errs <- app + "/" + tech
								return
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("wrong key for %s", e)
	}
}

// TestPointNameMemo: the memoized journal name of every app x tech x width
// is the fmt rendering, on the call that fills the memo, on the call that
// reads it, and with keys and names filled in either order from many
// goroutines at once (run under -race).
func TestPointNameMemo(t *testing.T) {
	widths := []int{1, 2, 3, 8, 16}
	check := func(pass string, fill func(app, tech string, w int, scale Scale) error) {
		for _, app := range sweepApps {
			for _, tech := range presetNames() {
				for _, w := range widths {
					for _, scale := range []Scale{Small, Full} {
						if err := fill(app, tech, w, scale); err != nil {
							t.Fatalf("%s: %s/%s/w%d: %v", pass, app, tech, w, err)
						}
						want := fmt.Sprintf("%s/%s/w%d", app, tech, w)
						if got := pointName(app, tech, w, scale); got != want {
							t.Fatalf("%s: name %q, want %q", pass, got, want)
						}
					}
				}
			}
		}
	}
	none := func(string, string, int, Scale) error { return nil }
	keyed := func(app, tech string, w int, scale Scale) error {
		key, err := pointKey(app, tech, w, scale)
		if err == nil && key != hashPoint(t, app, tech, w, scale) {
			err = errors.New("wrong key")
		}
		return err
	}
	resetPointKeys()
	check("cold", none)
	check("warm", none)
	check("keyed after named", keyed)
	resetPointKeys()
	check("named after keyed", keyed)

	resetPointKeys()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range sweepApps {
				app := sweepApps[(a+g)%len(sweepApps)]
				for _, w := range widths {
					// Half the goroutines key first, half name first, so
					// a key's insert races with its name's.
					var key string
					var err error
					if g%2 == 0 {
						key, err = pointKey(app, "ddr3-1333", w, Small)
					}
					name := pointName(app, "ddr3-1333", w, Small)
					if g%2 == 1 {
						key, err = pointKey(app, "ddr3-1333", w, Small)
					}
					if want := fmt.Sprintf("%s/ddr3-1333/w%d", app, w); err != nil || key == "" || name != want {
						errs <- fmt.Sprintf("%s: key %q err %v name %q", want, key, err, name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for _, app := range sweepApps {
		for _, w := range widths {
			if got, _ := pointKey(app, "ddr3-1333", w, Small); got != hashPoint(t, app, "ddr3-1333", w, Small) {
				t.Errorf("%s/w%d: key %s after the concurrent fill", app, w, got)
			}
		}
	}
}

// figuresResult is a result whose four grid figures are exactly the given
// values.
func figuresResult(runtimeMS, ipc, gbs, watts float64) *NodeResult {
	return &NodeResult{Seconds: runtimeMS / 1e3, IPC: ipc, MemBandwidth: gbs * 1e9,
		Budget: power.NodeBudget{CoreEnergyJ: watts, Seconds: 1}}
}

// checkGridCSV fails t unless g's direct CSV is byte-identical to its
// table's.
func checkGridCSV(t *testing.T, g *DSEGrid) {
	t.Helper()
	var got, want bytes.Buffer
	if err := g.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := g.Table().WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV:\n%s\nTable().WriteCSV:\n%s", got.Bytes(), want.Bytes())
	}
}

// TestDSEGridCSVMatchesTable: the direct CSV writer is the table's CSV byte
// for byte — over failed points (no error, a multi-line error, an empty
// one), odd widths and non-finite, huge and tiny figures — and over a real
// sweep with a failed app.
func TestDSEGridCSVMatchesTable(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	checkGridCSV(t, &DSEGrid{})
	checkGridCSV(t, &DSEGrid{Points: []DSEPoint{
		{App: "hpccg", Tech: "ddr3-1333", Width: 1, Result: figuresResult(0.1234567, 1.5, 12.25, 35)},
		{App: "a,b", Tech: "", Width: 0, Result: figuresResult(0, -0.0, 1e21, 1e-21)},
		{App: "x", Tech: "y", Width: -7, Result: figuresResult(nan, inf, -inf, math.MaxFloat64)},
		{App: "x", Tech: "y", Width: math.MaxInt, Result: figuresResult(math.SmallestNonzeroFloat64, 123456, 99995, 0.00012345)},
		{App: "x", Tech: "y", Width: 3},
		{App: "x", Tech: "y", Width: 5, Err: errors.New("core: sweep x/y/w5: boom\n\tat line 2\nline 3")},
		{App: "x", Tech: "y", Width: 9, Err: errors.New("")},
		{App: "x", Tech: "y", Width: 11, Err: errors.New("\nstarts with a newline")},
	}})
	g, err := MemTechWidthSweep([]string{"stream", "nosuchapp"}, []string{"ddr3-1333"}, []int{1, 3}, Small, SweepOptions{})
	if !errors.Is(err, ErrPointFailed) {
		t.Fatalf("sweep with an unknown app: %v", err)
	}
	checkGridCSV(t, g)
}

// FuzzDSEGridCSV: any four figures, on a point beside a failed one, render
// in the direct CSV exactly as in the table's.
func FuzzDSEGridCSV(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0)
	f.Add(math.NaN(), math.Inf(1), math.Inf(-1), -0.0)
	f.Add(1e21, 1e-21, 99995.0, 0.00012345)
	f.Fuzz(func(t *testing.T, runtimeMS, ipc, gbs, watts float64) {
		r := &NodeResult{Seconds: runtimeMS, IPC: ipc, MemBandwidth: gbs,
			Budget: power.NodeBudget{CoreEnergyJ: watts, Seconds: 1}}
		checkGridCSV(t, &DSEGrid{Points: []DSEPoint{
			{App: "a", Tech: "t", Width: 4, Result: r},
			{App: "a", Tech: "t", Width: 8, Err: errors.New("failed\nsecond line")},
		}})
	})
}
