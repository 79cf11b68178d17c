package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCoreParamsValidate(t *testing.T) {
	p := CoreParams{BaseOpJ: -1, BaseAreaMM2: 1}
	if err := p.Validate(); err == nil {
		t.Error("negative energy accepted")
	}
	p = CoreParams{BaseOpJ: 1e-12, PortOpJ: 1e-12, BaseAreaMM2: 5}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.WidthExp != 1.8 || p.EnergyExp != 0.5 || p.FloatMult != 1 || p.MemMult != 1 {
		t.Errorf("defaults not filled: %+v", p)
	}
	d := DefaultCoreParams()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAreaSuperlinear(t *testing.T) {
	p := DefaultCoreParams()
	a1, a8 := p.AreaMM2(1), p.AreaMM2(8)
	if a8 <= a1 {
		t.Fatal("area not increasing with width")
	}
	// The width-sensitive part must scale superlinearly: port area at 8
	// wide is 8^1.8 ≈ 42x the width-1 port area.
	portRatio := (a8 - p.BaseAreaMM2) / (a1 - p.BaseAreaMM2)
	if portRatio < 40 || portRatio > 45 {
		t.Errorf("port area ratio = %.1f, want ~42 (8^1.8)", portRatio)
	}
}

func TestEnergyPerOpIncreasesWithWidth(t *testing.T) {
	p := DefaultCoreParams()
	prev := 0.0
	for _, w := range []int{1, 2, 4, 8} {
		e := p.EnergyPerOpJ(w)
		if e <= prev {
			t.Fatalf("energy/op not increasing at width %d", w)
		}
		prev = e
	}
	// Energy per op grows far more slowly than area (amortized ports).
	eRatio := p.EnergyPerOpJ(8) / p.EnergyPerOpJ(1)
	aRatio := p.AreaMM2(8) / p.AreaMM2(1)
	if eRatio >= aRatio {
		t.Errorf("energy ratio %.2f should be below area ratio %.2f", eRatio, aRatio)
	}
}

func TestStaticPowerTracksArea(t *testing.T) {
	p := DefaultCoreParams()
	r := p.StaticPowerW(8) / p.StaticPowerW(1)
	a := p.AreaMM2(8) / p.AreaMM2(1)
	if math.Abs(r-a) > 1e-9 {
		t.Fatalf("static ratio %v != area ratio %v", r, a)
	}
}

func TestCoreEnergyComposition(t *testing.T) {
	p := DefaultCoreParams()
	act := CoreActivity{IntOps: 1000, FloatOps: 500, MemOps: 200, Branches: 100, Seconds: 1e-6}
	e := p.CoreEnergyJ(2, act)
	eop := p.EnergyPerOpJ(2)
	want := eop*1100 + eop*p.FloatMult*500 + eop*p.MemMult*200 + p.StaticPowerW(2)*1e-6
	if math.Abs(e-want) > 1e-15 {
		t.Fatalf("energy = %v, want %v", e, want)
	}
	if act.Ops() != 1800 {
		t.Fatalf("Ops = %d", act.Ops())
	}
}

func TestDiesPerWafer(t *testing.T) {
	c := DefaultCostParams()
	small := c.DiesPerWafer(50)
	big := c.DiesPerWafer(400)
	if small <= big || big <= 0 {
		t.Fatalf("dies: 50mm²=%v 400mm²=%v", small, big)
	}
	// 300mm wafer is ~70685 mm²; a 50 mm² die should give on the order
	// of 1000+ dies.
	if small < 1000 || small > 1500 {
		t.Errorf("50mm² dies/wafer = %v, want ~1200", small)
	}
	if c.DiesPerWafer(0) != 0 {
		t.Error("zero-area dies not 0")
	}
}

func TestYieldDecreasesWithArea(t *testing.T) {
	c := DefaultCostParams()
	fn := func(a1Raw, a2Raw uint16) bool {
		a1 := float64(a1Raw%1000) + 1
		a2 := a1 + float64(a2Raw%1000) + 1
		y1, y2 := c.Yield(a1), c.Yield(a2)
		return y1 > y2 && y1 <= 1 && y2 > 0
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDieCostSuperlinear(t *testing.T) {
	c := DefaultCostParams()
	// Doubling area should more than double pre-package silicon cost
	// (fewer dies AND lower yield).
	c.PackageTestUSD = 0
	c100 := c.DieCostUSD(100)
	c200 := c.DieCostUSD(200)
	if c200 <= 2*c100 {
		t.Errorf("200mm² die $%.2f vs 100mm² $%.2f: cost not superlinear", c200, c100)
	}
	if math.IsInf(c.DieCostUSD(1e9), 1) == false {
		t.Error("absurd die should cost infinity")
	}
}

func TestCostValidate(t *testing.T) {
	c := CostParams{}
	if err := c.Validate(); err == nil {
		t.Error("zero wafer accepted")
	}
	c = CostParams{WaferDiameterMM: 300, WaferCostUSD: 1000}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.ClusterAlpha != 3 {
		t.Error("alpha default not filled")
	}
}

func TestMemoryCost(t *testing.T) {
	if MemoryCostUSD(8, 16) != 128 {
		t.Fatal("memory cost")
	}
}

func TestNodeBudget(t *testing.T) {
	b := NodeBudget{
		CoreEnergyJ: 2, MemEnergyJ: 1, Seconds: 0.5,
		ChipCostUSD: 100, MemCostUSD: 50,
	}
	if b.TotalEnergyJ() != 3 {
		t.Fatal("total energy")
	}
	if b.AvgPowerW() != 6 {
		t.Fatal("avg power")
	}
	if b.TotalCostUSD() != 150 {
		t.Fatal("total cost")
	}
	if b.PerfPerWatt(60) != 10 {
		t.Fatal("perf/W")
	}
	if b.PerfPerDollar(300) != 2 {
		t.Fatal("perf/$")
	}
	empty := NodeBudget{}
	if empty.AvgPowerW() != 0 || empty.PerfPerWatt(1) != 0 || empty.PerfPerDollar(1) != 0 {
		t.Fatal("zero guards")
	}
}

// TestWidthEfficiencyShape checks the qualitative Fig. 12 result with the
// default models: assuming perf grows sublinearly with width (as the
// simulations show), narrow cores win power efficiency and mid cores win
// cost efficiency.
func TestWidthEfficiencyShape(t *testing.T) {
	p := DefaultCoreParams()
	c := DefaultCostParams()
	// Representative measured speedups (memory-bound miniapp shape).
	perf := map[int]float64{1: 1.0, 2: 1.35, 4: 1.6, 8: 1.78}
	uncoreMM2 := 40.0 // caches and I/O shared by all configs
	effW := map[int]float64{}
	effD := map[int]float64{}
	for _, w := range []int{1, 2, 4, 8} {
		seconds := 1.0 / perf[w]
		ops := 1e9
		act := CoreActivity{IntOps: uint64(ops), Seconds: seconds}
		e := p.CoreEnergyJ(w, act)
		effW[w] = perf[w] / (e / seconds)
		effD[w] = perf[w] / c.DieCostUSD(p.AreaMM2(w)+uncoreMM2)
	}
	if !(effW[1] > effW[4] && effW[2] > effW[8]) {
		t.Errorf("power efficiency shape wrong: %v", effW)
	}
	best := 1
	for _, w := range []int{2, 4, 8} {
		if effD[w] > effD[best] {
			best = w
		}
	}
	if best != 2 && best != 4 {
		t.Errorf("cost efficiency best at width %d, want 2-4: %v", best, effD)
	}
}
