package stats

import (
	"strings"
	"testing"

	"sst/internal/sim"
)

func TestSamplerManual(t *testing.T) {
	reg := NewRegistry()
	c := reg.Scope("m").Counter("bytes")
	s := NewSampler(reg, "m.bytes")
	c.Add(10)
	if err := s.SampleAt(100); err != nil {
		t.Fatal(err)
	}
	c.Add(30)
	if err := s.SampleAt(200); err != nil {
		t.Fatal(err)
	}
	if s.N() != 2 {
		t.Fatalf("n = %d", s.N())
	}
	tm, row := s.Row(1)
	if tm != 200 || row[0] != 40 {
		t.Fatalf("row 1 = %v %v", tm, row)
	}
	series, err := s.Series("m.bytes")
	if err != nil || len(series) != 2 || series[0] != 10 || series[1] != 40 {
		t.Fatalf("series = %v, %v", series, err)
	}
	if _, err := s.Series("nope"); err == nil {
		t.Error("untracked series returned")
	}
	if err := NewSampler(reg, "missing.stat").SampleAt(1); err == nil {
		t.Error("unknown stat sampled")
	}
}

func TestSamplerPeriodic(t *testing.T) {
	reg := NewRegistry()
	c := reg.Scope("m").Counter("events")
	engine := sim.NewEngine()
	// A workload that bumps the counter every ns for 100ns.
	var work sim.Handler
	n := 0
	work = func(any) {
		c.Inc()
		n++
		if n < 100 {
			engine.Schedule(sim.Nanosecond, work, nil)
		}
	}
	engine.Schedule(0, work, nil)
	s := NewSampler(reg, "m.events")
	s.Every(engine, 10*sim.Nanosecond, 8)
	engine.RunAll()
	if s.N() != 8 {
		t.Fatalf("samples = %d, want 8", s.N())
	}
	// Monotonic counter, ~10 events per 10ns period.
	series, _ := s.Series("m.events")
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1] {
			t.Fatal("series not monotone")
		}
	}
	prev := 0.0
	for i, v := range series {
		if d := v - prev; d < 9 || d > 12 {
			t.Fatalf("delta[%d] = %v, want ~10", i, d)
		}
		prev = v
	}
	// The sampler must not have kept the queue alive past its budget.
	if engine.Pending() != 0 {
		t.Fatal("sampler left events pending")
	}
}

func TestSamplerCSV(t *testing.T) {
	reg := NewRegistry()
	c := reg.Scope("m").Counter("x")
	s := NewSampler(reg, "m.x")
	c.Add(5)
	s.SampleAt(1000)
	var sb strings.Builder
	s.WriteCSV(&sb)
	out := sb.String()
	if !strings.Contains(out, "time_ps,m.x") || !strings.Contains(out, "1000,5") {
		t.Fatalf("csv:\n%s", out)
	}
	if len(s.Names()) != 1 {
		t.Fatal("names")
	}
}

func TestSamplerZeroBudget(t *testing.T) {
	reg := NewRegistry()
	engine := sim.NewEngine()
	s := NewSampler(reg)
	s.Every(engine, sim.Nanosecond, 0)
	if engine.Pending() != 0 {
		t.Fatal("zero-budget sampler armed")
	}
}
