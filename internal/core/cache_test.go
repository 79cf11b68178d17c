package core

// Result-cache properties: a cache-hit grid renders byte-identical to a
// cold uncached run for every study type at any worker count; cached node
// results are field-for-field equal to
// simulated ones; and the codec round-trips both value kinds exactly.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"sst/internal/cache"
	"sst/internal/config"
	"sst/internal/sim"
)

func csvOf(t *testing.T, r Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.Bytes()
}

func newTestCache(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := NewSweepCache(256, cache.LRU, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestCachedPointBitIdentical runs every study type cold (no cache), then
// twice against a cache — miss pass, then hit pass — and requires the hit
// pass's rendered CSV to be byte-identical to the cold run's. The DSE
// study additionally runs at one and at three workers.
func TestCachedPointBitIdentical(t *testing.T) {
	apps, techs, widths := []string{"stream"}, []string{"ddr3-1333"}, []int{1, 2}
	coldGrid, err := MemTechWidthSweep(apps, techs, widths, Small, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	coldCSV := csvOf(t, coldGrid)

	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("dse/workers=%d", workers), func(t *testing.T) {
			c := newTestCache(t)
			// Arena-reusing workers must not perturb the cached bytes:
			// the miss pass simulates on warm arenas, the hit pass reads
			// back, and both must match the arena-free cold run.
			opts := SweepOptions{Workers: workers, Cache: c, Arena: NewArenaPool()}
			if _, err := MemTechWidthSweep(apps, techs, widths, Small, opts); err != nil {
				t.Fatal(err)
			}
			if got := c.Stats(); got.Misses != int64(len(widths)) || got.Hits != 0 {
				t.Fatalf("cold pass stats %+v, want %d misses 0 hits", got, len(widths))
			}
			warm, err := MemTechWidthSweep(apps, techs, widths, Small, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Stats(); got.Hits != int64(len(widths)) {
				t.Fatalf("hit pass stats %+v, want %d hits", got, len(widths))
			}
			if gotCSV := csvOf(t, warm); !bytes.Equal(gotCSV, coldCSV) {
				t.Errorf("workers %d: cached grid CSV differs from cold run\n got %s\nwant %s",
					workers, gotCSV, coldCSV)
			}
			// Field-for-field equality on the grid itself, modulo the
			// one host-time field.
			for i := range warm.Points {
				w, r := *warm.Points[i].Result, *coldGrid.Points[i].Result
				w.HostSeconds, r.HostSeconds = 0, 0
				if !reflect.DeepEqual(w, r) {
					t.Errorf("point %d diverged\n got %+v\nwant %+v", i, w, r)
				}
			}
		})
	}

	// The remaining study types; every study runs a miss pass and a hit
	// pass against one cache.
	type study struct {
		name string
		run  func(opts SweepOptions) (Result, error)
	}
	studies := []study{
		{"memspeed", func(o SweepOptions) (Result, error) {
			return MemSpeedStudy([]string{"ddr3-1066", "ddr3-1333"}, Small, o)
		}},
		{"corescaling", func(o SweepOptions) (Result, error) {
			return CoreScalingStudy([]string{"stream"}, []int{1, 2}, Small, o)
		}},
		{"cachestudy", func(o SweepOptions) (Result, error) {
			return CacheStudy(Small, o)
		}},
		{"pim", func(o SweepOptions) (Result, error) {
			return PIMStudy([]string{"gups"}, Small, o)
		}},
		{"weakscaling", func(o SweepOptions) (Result, error) {
			return WeakScalingStudy([]int{4, 8}, 1, o)
		}},
		{"netdegradation", func(o SweepOptions) (Result, error) {
			cfg := NetStudyConfig{Nodes: 8, Fractions: []float64{1, 0.5}, Steps: 2}
			return NetDegradationStudy(cfg, o)
		}},
	}
	for _, s := range studies {
		t.Run(s.name, func(t *testing.T) {
			cold, err := s.run(SweepOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			c := newTestCache(t)
			if _, err := s.run(SweepOptions{Workers: 2, Cache: c}); err != nil {
				t.Fatal(err)
			}
			if got := c.Stats(); got.Hits != 0 || got.Misses == 0 {
				t.Fatalf("cold pass stats %+v, want misses only", got)
			}
			warm, err := s.run(SweepOptions{Workers: 2, Cache: c})
			if err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if st.Hits != st.Misses {
				t.Fatalf("hit pass stats %+v, want hits == misses (every point a hit)", st)
			}
			if got, want := csvOf(t, warm), csvOf(t, cold); !bytes.Equal(got, want) {
				t.Errorf("cached study CSV differs from cold run\n got %s\nwant %s", got, want)
			}
		})
	}
}

// runOne runs cfg through RunMachines — the one-config sweep — and reports
// whether the cache served it.
func runOne(t *testing.T, c *cache.Cache, cfg *config.MachineConfig) (res *NodeResult, hit bool) {
	t.Helper()
	var before cache.Stats
	if c != nil {
		before = c.Stats()
	}
	out, err := RunMachines([]*config.MachineConfig{cfg}, SweepOptions{Workers: 1, Cache: c})
	if err != nil || out[0] == nil {
		t.Fatalf("run: res=%v err=%v", out[0], err)
	}
	if c != nil {
		after := c.Stats()
		if lookups := after.Hits + after.Misses - before.Hits - before.Misses; lookups != 1 {
			t.Fatalf("one point made %d cache lookups, want exactly 1", lookups)
		}
		hit = after.Hits == before.Hits+1
	}
	return out[0], hit
}

// TestRunMachinesCached pins the executor's hit/miss contract directly:
// second run hits, results match field-for-field (modulo host time), and
// the returned copies do not alias the cache's stored value.
func TestRunMachinesCached(t *testing.T) {
	c := newTestCache(t)
	cfg := SweepMachine("stream", "ddr3-1333", 1, Small)
	r1, hit := runOne(t, c, cfg)
	if hit {
		t.Fatal("first run hit an empty cache")
	}
	r2, hit := runOne(t, c, cfg)
	if !hit {
		t.Fatal("second run missed")
	}
	a, b := *r1, *r2
	a.HostSeconds, b.HostSeconds = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("cached result diverged\n got %+v\nwant %+v", b, a)
	}
	// Mutating a returned result — the fresh one or a hit — must not poison
	// the cache.
	r1.IPC, r2.IPC = -1, -1
	r3, hit := runOne(t, c, cfg)
	if !hit {
		t.Fatal("third run missed")
	}
	if r3.IPC == -1 {
		t.Error("cached value aliases a previously returned result")
	}
	// Nil cache degrades to a plain run.
	if _, hit := runOne(t, nil, cfg); hit {
		t.Fatal("nil-cache run reported a hit")
	}
}

// TestResultCodecRoundTrip: both cached value kinds survive
// encode→decode exactly (the persistent tier depends on it), and decoding
// hands back the bytes the value was stored with.
func TestResultCodecRoundTrip(t *testing.T) {
	codec := ResultCodec()
	res, err := RunMachine(SweepMachine("stream", "ddr3-1333", 1, Small))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []any{res, sim.Time(123456789)} {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := codec.Encode(nil, v, raw)
		if err != nil {
			t.Fatal(err)
		}
		back, backRaw, err := codec.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, v) {
			t.Errorf("%T did not round-trip\n got %+v\nwant %+v", v, back, v)
		}
		if !bytes.Equal(backRaw, raw) {
			t.Errorf("%T decoded with bytes %s, stored with %s", v, backRaw, raw)
		}
		if &backRaw[0] == &blob[len(blob)-len(raw)-1] {
			t.Errorf("%T decoded bytes alias the record", v)
		}
	}

	if _, err := codec.Encode(nil, struct{}{}, []byte("{}")); err == nil {
		t.Error("codec accepted an unsupported type")
	}
	if _, err := codec.Encode(nil, res, nil); err == nil {
		t.Error("codec wrapped a value stored without its encoding")
	}
	for _, rec := range []string{`{"kind":"node"}`, `{"kind":"node","val":null}`, `{"kind":"bogus","val":1}`} {
		if _, _, err := codec.Decode([]byte(rec)); err == nil {
			t.Errorf("codec decoded %s", rec)
		}
	}
}

// TestResultCodecMatchesMarshal: the envelope Encode appends is byte for
// byte what json.Marshal writes for the same kind and value, appended
// after whatever the buffer already held.
func TestResultCodecMatchesMarshal(t *testing.T) {
	codec := ResultCodec()
	res, err := RunMachine(SweepMachine("gups", "gddr5-4000", 2, Small))
	if err != nil {
		t.Fatal(err)
	}
	for kind, v := range map[string]any{"node": res, "time": sim.Time(987654321)} {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(resultEnvelope{Kind: kind, Val: raw})
		if err != nil {
			t.Fatal(err)
		}
		got, err := codec.Encode([]byte("prefix"), v, raw)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "prefix"+string(want) {
			t.Errorf("%s envelope\n got %s\nwant prefix%s", kind, got, want)
		}
	}
}

// TestSweepCacheWarmStartAcrossInstances: the persistent tier makes a new
// cache instance (a new process, in CLI terms) hit on points simulated by
// a previous one.
func TestSweepCacheWarmStartAcrossInstances(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	c1, err := NewSweepCache(64, cache.LRU, nil, path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepMachine("stream", "ddr3-1333", 2, Small)
	ref, hit := runOne(t, c1, cfg)
	if hit {
		t.Fatal("seed run hit an empty cache")
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := NewSweepCache(64, cache.LRU, nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Stats(); st.WarmStarts != 1 {
		t.Fatalf("warm starts = %d, want 1", st.WarmStarts)
	}
	got, hit := runOne(t, c2, cfg)
	if !hit {
		t.Fatal("warm-started run missed")
	}
	a, b := *ref, *got
	a.HostSeconds, b.HostSeconds = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("file-tier result diverged\n got %+v\nwant %+v", b, a)
	}
}
