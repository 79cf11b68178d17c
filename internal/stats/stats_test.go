package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	c := NewCounter("hits")
	c.Inc()
	c.Add(4)
	if c.Count() != 5 || c.Value() != 5 {
		t.Fatalf("count = %d", c.Count())
	}
	c.Reset()
	if c.Count() != 0 {
		t.Fatal("reset failed")
	}
	if c.Name() != "hits" {
		t.Fatal("name lost")
	}
}

func TestAccumulatorMoments(t *testing.T) {
	a := NewAccumulator("lat")
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Observe(v)
	}
	if a.N() != 8 {
		t.Fatalf("n = %d", a.N())
	}
	if a.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", a.Mean())
	}
	if got := a.Var(); math.Abs(got-32.0/7) > 1e-12 {
		t.Fatalf("var = %v, want %v", got, 32.0/7)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
	if a.sum != 40 {
		t.Fatalf("sum = %v", a.sum)
	}
}

func TestAccumulatorWelfordMatchesNaive(t *testing.T) {
	fn := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		a := NewAccumulator("x")
		var sum float64
		for _, r := range raw {
			a.Observe(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, r := range raw {
			d := float64(r) - mean
			ss += d * d
		}
		naive := ss / float64(len(raw)-1)
		return math.Abs(a.Var()-naive) <= 1e-6*(1+naive)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	a := NewAccumulator("x")
	if a.Mean() != 0 || a.Var() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	if !strings.Contains(a.String(), "no samples") {
		t.Fatalf("empty String() = %q", a.String())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("lat")
	h.Observe(0) // bucket 0
	h.Observe(1) // bucket 1
	h.Observe(2) // bucket 2
	h.Observe(3) // bucket 2
	h.Observe(1000)
	if h.buckets[0] != 1 || h.buckets[1] != 1 || h.buckets[2] != 2 {
		t.Fatalf("buckets = %d %d %d", h.buckets[0], h.buckets[1], h.buckets[2])
	}
	if h.buckets[10] != 1 { // 1000 is in [512,1024)
		t.Fatalf("bucket(10) = %d", h.buckets[10])
	}
	if h.N() != 5 {
		t.Fatalf("n = %d", h.N())
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram("x")
	for i := uint64(1); i <= 100; i++ {
		h.Observe(i)
	}
	p50 := h.Percentile(50)
	if p50 < 50 || p50 > 127 {
		t.Fatalf("p50 bound = %d", p50)
	}
	p100 := h.Percentile(100)
	if p100 < 100 {
		t.Fatalf("p100 bound = %d < max sample", p100)
	}
	if NewHistogram("e").Percentile(99) != 0 {
		t.Fatal("empty percentile != 0")
	}
}

func TestGauge(t *testing.T) {
	g := NewGauge("occ")
	g.Add(3)
	g.Add(2)
	g.Add(-4)
	if g.cur != 1 || g.Peak() != 5 {
		t.Fatalf("cur=%d peak=%d", g.cur, g.Peak())
	}
	g.Set(10)
	if g.Peak() != 10 {
		t.Fatalf("peak after Set = %d", g.Peak())
	}
	g.Reset()
	if g.cur != 0 || g.Peak() != 0 {
		t.Fatal("reset failed")
	}
}

func TestRegistryScopes(t *testing.T) {
	r := NewRegistry()
	cpu := r.Scope("cpu0")
	c := cpu.Counter("instructions")
	l1 := cpu.Sub("l1d")
	h := l1.Counter("hits")
	c.Add(10)
	h.Add(3)
	if r.Get("cpu0.instructions") != c {
		t.Fatal("lookup failed")
	}
	if r.Counter("cpu0.l1d.hits").Count() != 3 {
		t.Fatal("nested scope lookup failed")
	}
	if r.Counter("cpu0.nothere") != nil {
		t.Fatal("missing stat not nil")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("a")
	s.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	s.Counter("x")
}

func TestRegistryDumpAndCSV(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("m")
	s.Counter("a").Add(2)
	s.Accumulator("b").Observe(1.5)
	var sb strings.Builder
	r.Dump(&sb)
	out := sb.String()
	if !strings.Contains(out, "m.a") || !strings.Contains(out, "m.b") {
		t.Fatalf("dump missing entries:\n%s", out)
	}
	sb.Reset()
	r.WriteCSV(&sb)
	if !strings.Contains(sb.String(), "m.a,2") {
		t.Fatalf("csv missing row:\n%s", sb.String())
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Fig X", "config", "time", "speedup")
	tb.AddRow("ddr3", 1.5, 1.0)
	tb.AddRow("gddr5", 1.0, 1.5)
	out := tb.String()
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "gddr5") {
		t.Fatalf("render:\n%s", out)
	}
	if tb.NumRows() != 2 || tb.Row(1)[0] != "gddr5" {
		t.Fatal("table accessors broken")
	}
	var sb strings.Builder
	tb.RenderCSV(&sb)
	if !strings.Contains(sb.String(), "ddr3,1.5,1") {
		t.Fatalf("csv:\n%s", sb.String())
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram("x")
	if !strings.Contains(h.String(), "no samples") {
		t.Fatal("empty histogram string")
	}
	h.Observe(5)
	if !strings.Contains(h.String(), "n=1") {
		t.Fatalf("histogram string = %q", h.String())
	}
}
