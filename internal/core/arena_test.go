package core

// Arena safety properties. The per-worker PointArena must be invisible in
// results — grids run with arenas are byte-identical to arena-free runs —
// and indestructible under the sweep failure menu: a point that panics or
// times out with the arena's storage still lent out leaves the arena
// Reset-safe for the next point, with no state aliased across points.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"sst/internal/leakcheck"
	"sst/internal/sim"
)

// TestSweepArenaDeterminism is the headline arena property: the same
// studies, with and without SweepOptions.Arena, at one and many workers,
// under an active RetryPolicy, render byte-identical CSVs — and one pool
// serves consecutive sweeps, like the sweep service reuses it across jobs.
func TestSweepArenaDeterminism(t *testing.T) {
	leakcheck.Check(t)
	apps, techs, widths := []string{"stream", "gups"}, []string{"ddr3-1333"}, []int{1, 2}
	retry := RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond, Seed: 7}

	cold, err := MemTechWidthSweep(apps, techs, widths, Small, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	coldCSV := csvOf(t, cold)

	pool := NewArenaPool()
	for _, workers := range []int{1, 4} {
		warm, err := MemTechWidthSweep(apps, techs, widths, Small,
			SweepOptions{Workers: workers, Arena: pool, Retry: retry})
		if err != nil {
			t.Fatal(err)
		}
		if got := csvOf(t, warm); !bytes.Equal(got, coldCSV) {
			t.Errorf("workers=%d: arena grid CSV differs from arena-free run\n got %s\nwant %s",
				workers, got, coldCSV)
		}
		for i := range warm.Points {
			w, c := *warm.Points[i].Result, *cold.Points[i].Result
			w.HostSeconds, c.HostSeconds = 0, 0
			if !reflect.DeepEqual(w, c) {
				t.Errorf("workers=%d: point %d diverged with arena\n got %+v\nwant %+v", workers, i, w, c)
			}
		}
	}
	if made, served := pool.Stats(); made < 1 || served <= made {
		t.Fatalf("pool stats made=%d served=%d, want reuse across the two sweeps", made, served)
	}

	// The net study exercises the RunNetPointCtx lend/harvest path.
	cfg := NetStudyConfig{Nodes: 8, Fractions: []float64{1, 0.5}, Steps: 2}
	netCold, err := NetDegradationStudy(cfg, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	netWarm, err := NetDegradationStudy(cfg, SweepOptions{Workers: 2, Arena: pool, Retry: retry})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := csvOf(t, netWarm), csvOf(t, netCold); !bytes.Equal(got, want) {
		t.Errorf("net study CSV differs with arena\n got %s\nwant %s", got, want)
	}
}

// arenaPointValue runs one synthetic design point the way RunNetPointCtx
// does — fresh engine, arena lent for the duration, harvested at the end
// — and returns a value derived purely from the events it dispatched.
// Any state leaking across points through the arena would change it.
func arenaPointValue(ctx context.Context, i int) uint64 {
	engine := sim.NewEngine()
	if a := arenaFrom(ctx); a != nil {
		a.Events.Lend(engine)
		defer a.Events.Harvest(engine)
	}
	want := uint64(3*i + 5)
	var n uint64
	var step func(any)
	step = func(any) {
		n++
		if n < want {
			engine.Schedule(sim.Nanosecond, step, nil)
		}
	}
	engine.Schedule(0, step, nil)
	engine.RunAll()
	return n
}

// TestSweepArenaSurvivesPanickingPoint: the first attempt of every point
// panics with the arena's storage still lent out (no Harvest runs — the
// worst case the move-semantics design allows). The retry must succeed
// on the same worker arena and every point's value must match a run with
// no arena at all.
func TestSweepArenaSurvivesPanickingPoint(t *testing.T) {
	leakcheck.Check(t)
	const n = 6
	runGrid := func(pool *ArenaPool, failures int) []uint64 {
		t.Helper()
		vals := make([]uint64, n)
		var mu sync.Mutex
		attempts := map[int]int{}
		opts := SweepOptions{
			Workers: 2, Arena: pool,
			Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, Seed: 7},
		}
		errs, err := runFn(opts, n, func(ctx context.Context, i int) error {
			if pool != nil && arenaFrom(ctx) == nil {
				t.Error("sweep has an Arena pool but the point context carries none")
			}
			mu.Lock()
			attempts[i]++
			first := attempts[i] == 1
			mu.Unlock()
			if first && failures > 0 {
				// Lend, schedule work, then die without harvesting: the
				// arena stays empty until the pool resets it.
				engine := sim.NewEngine()
				if a := arenaFrom(ctx); a != nil {
					a.Events.Lend(engine)
				}
				engine.Schedule(0, func(any) {}, nil)
				panic(fmt.Sprintf("mid-point wobble on %d", i))
			}
			vals[i] = arenaPointValue(ctx, i)
			return nil
		})
		if err != nil {
			t.Fatalf("flaky arena sweep failed: %v", err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("point %d: %v", i, e)
			}
		}
		return vals
	}
	want := runGrid(nil, 0) // no arena, no faults: the oracle
	got := runGrid(NewArenaPool(), 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("values diverged after panics on arena workers\n got %v\nwant %v", got, want)
	}
}

// TestSweepArenaSurvivesTimedOutPoint: same property for the timeout
// path — a point cut by PointTimeout keeps the lent storage, and the
// stretched-deadline retry on the same arena still produces the
// arena-free values.
func TestSweepArenaSurvivesTimedOutPoint(t *testing.T) {
	leakcheck.Check(t)
	const n = 4
	pool := NewArenaPool()
	vals := make([]uint64, n)
	var mu sync.Mutex
	attempts := map[int]int{}
	opts := SweepOptions{
		Workers: 1, Arena: pool, PointTimeout: time.Second,
		Retry: RetryPolicy{RetryTimeouts: true, TimeoutScale: 2, Seed: 7},
	}
	errs, err := runFn(opts, n, func(ctx context.Context, i int) error {
		mu.Lock()
		attempts[i]++
		first := attempts[i] == 1
		mu.Unlock()
		if first {
			engine := sim.NewEngine()
			if a := arenaFrom(ctx); a != nil {
				a.Events.Lend(engine)
			}
			return fmt.Errorf("wedged with arena lent: %w", context.DeadlineExceeded)
		}
		vals[i] = arenaPointValue(ctx, i)
		return nil
	})
	if err != nil {
		t.Fatalf("timed-out arena sweep failed: %v", err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("point %d: %v", i, e)
		}
		if want := uint64(3*i + 5); vals[i] != want {
			t.Fatalf("point %d value %d, want %d", i, vals[i], want)
		}
	}
}

// TestArenaPoolReuse pins the pool mechanics the serve soak rests on:
// one pool hands the same arena back to successive sweeps instead of
// growing, and Put resets the trims.
func TestArenaPoolReuse(t *testing.T) {
	pool := NewArenaPool()
	a := pool.Get()
	if made, _ := pool.Stats(); made != 1 {
		t.Fatalf("made = %d, want 1", made)
	}
	pool.Put(a)
	b := pool.Get()
	if b != a {
		t.Fatal("pool created a new arena while one was free")
	}
	pool.Put(b)
	if made, served := pool.Stats(); made != 1 || served != 2 {
		t.Fatalf("stats made=%d served=%d, want 1 made 2 served", made, served)
	}
	pool.Put(nil) // must be a no-op, the nil-arena release path
	if made, _ := pool.Stats(); made != 1 {
		t.Fatal("Put(nil) changed the pool")
	}
}
