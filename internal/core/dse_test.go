package core

import (
	"sort"
	"sync"
	"testing"

	"sst/internal/dram"
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
