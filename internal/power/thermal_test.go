package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestThermalValidate(t *testing.T) {
	p := ThermalParams{}
	if err := p.Validate(); err == nil {
		t.Error("zero resistance accepted")
	}
	d := DefaultThermalParams()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLeakageDoubling(t *testing.T) {
	p := DefaultThermalParams()
	base := p.LeakageAt(2, p.RefC)
	if base != 2 {
		t.Fatalf("leakage at ref = %v", base)
	}
	hot := p.LeakageAt(2, p.RefC+p.LeakDoubleC)
	if math.Abs(hot-4) > 1e-12 {
		t.Fatalf("leakage one doubling up = %v, want 4", hot)
	}
	cold := p.LeakageAt(2, p.RefC-p.LeakDoubleC)
	if math.Abs(cold-1) > 1e-12 {
		t.Fatalf("leakage one doubling down = %v, want 1", cold)
	}
}

func TestSteadyStateFixedPoint(t *testing.T) {
	p := DefaultThermalParams()
	st := p.SteadyState(20, 1)
	if st.Throttled {
		t.Fatal("modest power throttled")
	}
	// Verify it is a genuine fixed point.
	want := p.AmbientC + p.ResistanceCPerW*st.TotalW
	if math.Abs(st.TempC-want) > 1e-3 {
		t.Fatalf("not a fixed point: T=%.3f, recomputed %.3f", st.TempC, want)
	}
	// Leakage must make the die hotter than dynamic power alone would
	// (the leakage magnitude itself depends on where T lands relative to
	// the RefC specification point).
	noLeak := p.AmbientC + p.ResistanceCPerW*20
	if st.TempC <= noLeak {
		t.Fatalf("leakage contribution missing: T=%.2f <= %.2f", st.TempC, noLeak)
	}
}

func TestSteadyStateMonotonicInPower(t *testing.T) {
	p := DefaultThermalParams()
	fn := func(aRaw, bRaw uint8) bool {
		a := float64(aRaw) / 4
		b := a + float64(bRaw)/4 + 0.1
		ta := p.SteadyState(a, 0.5).TempC
		tb := p.SteadyState(b, 0.5).TempC
		return tb >= ta
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSteadyStateRunaway(t *testing.T) {
	p := DefaultThermalParams()
	st := p.SteadyState(200, 50)
	if !st.Throttled {
		t.Fatal("200 W through 0.6 C/W should exceed the limit")
	}
	if st.TempC > p.MaxC+1e-9 {
		t.Fatalf("throttled temperature %v above limit", st.TempC)
	}
}

func TestFITArrhenius(t *testing.T) {
	r := DefaultReliabilityParams()
	base := r.FIT(100, r.RefC, 0)
	if math.Abs(base-50) > 1e-9 {
		t.Fatalf("FIT at ref = %v, want 50", base)
	}
	hot := r.FIT(100, r.RefC+30, 0)
	if hot <= base*2 {
		t.Fatalf("30C hotter should much more than double FIT: %v vs %v", hot, base)
	}
	cold := r.FIT(100, r.RefC-20, 0)
	if cold >= base {
		t.Fatal("cooler silicon should fail less")
	}
	withCycles := r.FIT(100, r.RefC, 20)
	if withCycles <= base {
		t.Fatal("thermal cycling should add failures")
	}
}

func TestMTBF(t *testing.T) {
	if MTBFHours(1e9) != 1 {
		t.Fatal("1e9 FIT should be 1 hour MTBF")
	}
	if !math.IsInf(MTBFHours(0), 1) {
		t.Fatal("zero FIT should be infinite MTBF")
	}
	// 10,000 nodes at 100 FIT each: 1e6 FIT system => 1000 h.
	if got := MTBFHours(100 * 10_000); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("system MTBF = %v, want 1000", got)
	}
}

// TestThermalRealisticNode sanity-checks the coupled models over the DSE
// node's operating range: a ~15-40 W node lands at plausible temperatures
// (55-90 C) with plausible MTBF.
func TestThermalRealisticNode(t *testing.T) {
	th := DefaultThermalParams()
	rel := DefaultReliabilityParams()
	for _, dynW := range []float64{10, 20, 40} {
		st := th.SteadyState(dynW, 1.5)
		if st.Throttled {
			t.Fatalf("%v W node throttled", dynW)
		}
		if st.TempC < 50 || st.TempC > 95 {
			t.Errorf("%v W node at %.1f C: outside plausible range", dynW, st.TempC)
		}
		fit := rel.FIT(130, st.TempC, 10)
		mtbf := MTBFHours(fit)
		if mtbf < 1e5 || mtbf > 1e8 {
			t.Errorf("node MTBF %.3g h implausible at %.1f C", mtbf, st.TempC)
		}
	}
}
