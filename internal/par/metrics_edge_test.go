package par

import (
	"errors"
	"strings"
	"testing"
	"time"

	"sst/internal/sim"
)

// TestMetricsEdgeCases drives Metrics() through the states a consumer can
// observe outside the happy path: a runner that never ran, a single rank
// that completed, an interrupted multi-rank run, and sparse runs that
// must not crawl. Table-driven so each case documents exactly what it pins.
func TestMetricsEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *Runner
		check func(t *testing.T, m RunnerMetrics)
	}{
		{
			name: "zero completed windows",
			build: func(t *testing.T) *Runner {
				r, err := NewRunner(3)
				if err != nil {
					t.Fatal(err)
				}
				return r // Metrics before any Run call
			},
			check: func(t *testing.T, m RunnerMetrics) {
				if m.Windows != 0 {
					t.Errorf("windows=%d, want 0", m.Windows)
				}
				if m.Imbalance != 0 {
					t.Errorf("imbalance = %v, want 0 (not NaN)", m.Imbalance)
				}
				if len(m.Ranks) != 3 {
					t.Fatalf("%d rank entries, want 3", len(m.Ranks))
				}
				for _, rk := range m.Ranks {
					if rk.Events != 0 || rk.Windows != 0 || rk.Clock != 0 || rk.Lookahead != 0 {
						t.Errorf("rank %d not zeroed: %+v", rk.Rank, rk)
					}
				}
			},
		},
		{
			name: "single rank completed",
			build: func(t *testing.T) *Runner {
				r, err := NewRunner(1)
				if err != nil {
					t.Fatal(err)
				}
				r.Rank(0).Engine().Schedule(sim.Nanosecond, func(any) {}, nil)
				if _, err := r.RunAll(); err != nil {
					t.Fatal(err)
				}
				return r
			},
			check: func(t *testing.T, m RunnerMetrics) {
				if m.Windows == 0 || m.Ranks[0].Events != 1 {
					t.Errorf("windows=%d events=%d, want >0/1", m.Windows, m.Ranks[0].Events)
				}
				if m.Lookahead != 0 {
					t.Errorf("lookahead = %v, want 0 with no cross links", m.Lookahead)
				}
			},
		},
		{
			name: "interrupted run",
			build: func(t *testing.T) *Runner {
				r, err := NewRunner(2)
				if err != nil {
					t.Fatal(err)
				}
				a, b, err := r.Connect("x", 10*sim.Nanosecond, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				a.SetHandler(func(any) {})
				b.SetHandler(func(any) {})
				eng := r.Rank(0).Engine()
				var tick func(any)
				tick = func(any) { eng.Schedule(sim.Nanosecond, tick, nil) }
				eng.Schedule(sim.Nanosecond, tick, nil)
				r.Interrupt() // interrupt before the first window completes
				if _, err := r.RunAll(); !errors.Is(err, sim.ErrInterrupted) {
					t.Fatalf("err = %v, want ErrInterrupted", err)
				}
				return r
			},
			check: func(t *testing.T, m RunnerMetrics) {
				// Metrics must stay readable and self-consistent after an
				// interrupted run: the aborted window is not counted.
				if m.Windows != 0 {
					t.Errorf("windows = %d, want 0 (window aborted before commit)", m.Windows)
				}
				if len(m.Ranks) != 2 {
					t.Fatalf("%d rank entries, want 2", len(m.Ranks))
				}
				if m.Lookahead != 10*sim.Nanosecond {
					t.Errorf("lookahead = %v, want 10ns", m.Lookahead)
				}
			},
		},
		{
			// A single event 10ms out behind a 1ns cross link: the
			// next-event horizons reach it directly, no window crawl of
			// one nanosecond per round.
			name: "sparse run pairwise stays cheap",
			build: func(t *testing.T) *Runner {
				r, err := NewRunner(2)
				if err != nil {
					t.Fatal(err)
				}
				a, b, err := r.Connect("x", sim.Nanosecond, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				a.SetHandler(func(any) {})
				b.SetHandler(func(any) {})
				r.Rank(0).Engine().Schedule(10*sim.Millisecond, func(any) {}, nil)
				if _, err := r.Run(11 * sim.Millisecond); err != nil {
					t.Fatal(err)
				}
				return r
			},
			check: func(t *testing.T, m RunnerMetrics) {
				if m.Windows > 100 {
					t.Errorf("windows = %d; next-event horizons should keep this tiny", m.Windows)
				}
				if m.Ranks[0].Events != 1 {
					t.Errorf("events = %d, want 1", m.Ranks[0].Events)
				}
			},
		},
		{
			name: "skip-idle counts skipped windows",
			build: func(t *testing.T) *Runner {
				r, err := NewRunner(2)
				if err != nil {
					t.Fatal(err)
				}
				a, b, err := r.Connect("x", 10*sim.Nanosecond, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				a.SetHandler(func(any) {})
				b.SetHandler(func(any) {})
				eng := r.Rank(0).Engine()
				for i := 1; i <= 100; i++ {
					eng.Schedule(sim.Time(i)*sim.Nanosecond, func(any) {}, nil)
				}
				if _, err := r.RunAll(); err != nil {
					t.Fatal(err)
				}
				return r
			},
			check: func(t *testing.T, m RunnerMetrics) {
				if m.Ranks[1].SkippedWindows == 0 {
					t.Error("idle rank was dispatched every round; skip-idle is not engaging")
				}
				if m.Ranks[1].SkippedWindows > m.Ranks[1].IdleWindows {
					t.Errorf("skipped (%d) exceeds idle (%d); skipped must be a subset",
						m.Ranks[1].SkippedWindows, m.Ranks[1].IdleWindows)
				}
				if m.Ranks[0].Events != 100 {
					t.Errorf("busy rank events = %d, want 100", m.Ranks[0].Events)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.check(t, tc.build(t).Metrics())
		})
	}
}

// TestStallErrorFormatting pins the stall diagnostic's shape directly:
// operators grep these lines out of logs, so the field spellings are a
// contract. Table-driven over the dispatch/arrival combinations the
// watchdog can observe.
func TestStallErrorFormatting(t *testing.T) {
	build := func(t *testing.T) *Runner {
		r, err := NewRunner(2)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Connect("x", 5*sim.Nanosecond, 0, 1); err != nil {
			t.Fatal(err)
		}
		r.watchdog = 123 * time.Millisecond
		r.ranks[0].base = 20 * sim.Nanosecond
		r.ranks[0].horizon = 25 * sim.Nanosecond
		r.ranks[1].base = 22 * sim.Nanosecond
		r.ranks[1].horizon = 27 * sim.Nanosecond
		return r
	}
	cases := []struct {
		name    string
		active  func(r *Runner) []*rank
		arrived []bool
		want    []string
		notWant []string
	}{
		{
			name:    "all dispatched, none arrived",
			active:  func(r *Runner) []*rank { return r.ranks },
			arrived: []bool{false, false},
			want: []string{
				"no rank completed the window",
				"123ms", "(lookahead 5ns)",
				"rank 0:", "rank 1:",
				"clock=", "pending=", "outbox=", "windows=",
				"base=20ns", "horizon=25ns", "base=22ns", "horizon=27ns",
				"did not respond to interrupt",
			},
			notWant: []string{"skipped"},
		},
		{
			name:    "one skipped, one stuck",
			active:  func(r *Runner) []*rank { return r.ranks[:1] },
			arrived: []bool{false, false},
			want: []string{
				"rank 1:", "(skipped: no work below horizon)",
				"rank 0:", "did not respond to interrupt",
			},
		},
		{
			name:    "stuck rank arrived after interrupt",
			active:  func(r *Runner) []*rank { return r.ranks },
			arrived: []bool{true, true},
			want:    []string{"rank 0:", "rank 1:"},
			notWant: []string{"did not respond to interrupt", "skipped"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := build(t)
			err := r.stallError(tc.active(r), tc.arrived)
			if !errors.Is(err, ErrStalled) {
				t.Fatalf("stallError not wrapped in ErrStalled: %v", err)
			}
			msg := err.Error()
			for _, w := range tc.want {
				if !strings.Contains(msg, w) {
					t.Errorf("diagnostic missing %q:\n%s", w, msg)
				}
			}
			for _, nw := range tc.notWant {
				if strings.Contains(msg, nw) {
					t.Errorf("diagnostic unexpectedly contains %q:\n%s", nw, msg)
				}
			}
		})
	}
}
