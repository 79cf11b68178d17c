package par

import (
	"testing"

	"sst/internal/sim"
)

// BenchmarkParallelWindow measures the per-window synchronization cost of
// the runner — barrier, horizon computation, and mailbox exchange — under
// pairwise sync. Four ranks in a ring, each with one local event and one
// remote send per 100ns window, so b.N iterations is b.N windows and ns/op
// is the steady-state cost of one conservative window. Gated against
// BENCH_baseline.json by `make bench`.
func BenchmarkParallelWindow(b *testing.B) {
	b.Run("sync=pairwise", func(b *testing.B) {
		r, err := NewRunner(4)
		if err != nil {
			b.Fatal(err)
		}
		outs := make([]*sim.Port, 4)
		for i := 0; i < 4; i++ {
			a, pb, err := r.Connect("ring"+itoa(i), 100*sim.Nanosecond, i, (i+1)%4)
			if err != nil {
				b.Fatal(err)
			}
			a.SetHandler(func(any) {})
			pb.SetHandler(func(any) {})
			outs[i] = a
		}
		for i := 0; i < 4; i++ {
			eng := r.Rank(i).Engine()
			out := outs[i]
			var tick func(any)
			tick = func(any) {
				out.Send(0)
				eng.Schedule(100*sim.Nanosecond, tick, nil)
			}
			eng.Schedule(100*sim.Nanosecond, tick, nil)
		}
		b.ResetTimer()
		b.ReportAllocs()
		if _, err := r.Run(sim.Time(b.N) * 100 * sim.Nanosecond); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("topo=lowlat/sync=pairwise", benchLowLat)
}

// lowlatTick is the workload for the low-lookahead variant: a dense local
// tick (one event per nanosecond) with a sparse cross-rank send every 64
// ticks.
type lowlatTick struct {
	name string
	set  *sim.EventSet
	out  *sim.Port
	n    uint64
}

func (lt *lowlatTick) Name() string { return lt.name }

// benchLowLat measures the case conservative windowing is worst at: a
// 4-rank ring with 1ns cross latency (so a pairwise window advances about
// one event spacing per barrier) where each rank's work is dominated by
// local events and cross traffic is sparse. One op is 100ns of simulated
// time, roughly 100 barrier rounds.
func benchLowLat(b *testing.B) {
	r, err := NewRunner(4)
	if err != nil {
		b.Fatal(err)
	}
	outs := make([]*sim.Port, 4)
	for i := 0; i < 4; i++ {
		a, pb, err := r.Connect("lowlat"+itoa(i), 1*sim.Nanosecond, i, (i+1)%4)
		if err != nil {
			b.Fatal(err)
		}
		a.SetHandler(func(any) {})
		pb.SetHandler(func(any) {})
		outs[i] = a
	}
	for i := 0; i < 4; i++ {
		eng := r.Rank(i).Engine()
		lt := &lowlatTick{name: "tick" + itoa(i), out: outs[i]}
		lt.set = sim.NewEventSet(eng, lt.name, func(any) {
			lt.n++
			if lt.n%64 == 0 {
				lt.out.Send(0)
			}
			lt.set.ScheduleAt(eng.Now()+1*sim.Nanosecond, sim.PrioLink, 0)
		})
		r.Rank(i).Add(lt)
		lt.set.ScheduleAt(1*sim.Nanosecond, sim.PrioLink, 0)
	}
	b.ResetTimer()
	b.ReportAllocs()
	if _, err := r.Run(sim.Time(b.N) * 100 * sim.Nanosecond); err != nil {
		b.Fatal(err)
	}
}
