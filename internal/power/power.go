// Package power provides the analytical technology models SST couples to
// its timing models: activity-based processor energy (Wattch/McPAT style),
// area with superlinear issue-width scaling, die yield and chip cost, and
// memory pricing. Together with the dram package's energy accounting these
// reproduce the power/cost axes of the design-space exploration studies.
package power

import (
	"fmt"
	"math"
)

// CoreParams calibrates one core's energy/area model. The width exponent
// follows the classic superscalar scaling result that register-file energy
// per access and area grow roughly O(w^1.8) with issue width.
type CoreParams struct {
	// BaseOpJ is the width-independent energy per retired operation
	// (ALU, decode, clocking).
	BaseOpJ float64
	// PortOpJ is the width-sensitive per-op energy at width 1 (register
	// file and bypass ports); it scales by w^EnergyExp.
	PortOpJ float64
	// WidthExp is the superlinear AREA exponent (default 1.8): register
	// file and bypass area grow roughly O(w^1.8) with issue width.
	WidthExp float64
	// EnergyExp is the PER-OP energy width exponent (default 0.5):
	// per-access port energy grows ~w^1.8, but the port cost is
	// amortized over the ops issued per cycle and only part of an op's
	// energy is width-sensitive, so the net per-op sensitivity is mild.
	EnergyExp float64
	// StaticW is leakage power at width 1; it scales with area.
	StaticW float64
	// BaseAreaMM2 is width-independent core area (caches excluded).
	BaseAreaMM2 float64
	// PortAreaMM2 is width-sensitive area at width 1, scaling by
	// w^WidthExp.
	PortAreaMM2 float64
	// FloatMult scales the per-op energy of floating-point operations.
	FloatMult float64
	// MemMult scales the per-op energy of loads/stores (core side).
	MemMult float64
}

// DefaultCoreParams is calibrated to a mid-2000s 45-65 nm general-purpose
// core: ~100 pJ/op scalar, ~10 mm², ~0.5 W leakage.
func DefaultCoreParams() CoreParams {
	return CoreParams{
		BaseOpJ:     800e-12,
		PortOpJ:     300e-12,
		WidthExp:    1.8,
		EnergyExp:   0.5,
		StaticW:     0.25,
		BaseAreaMM2: 6,
		PortAreaMM2: 2,
		FloatMult:   2.0,
		MemMult:     1.5,
	}
}

// Validate checks ranges and fills the default exponent.
func (p *CoreParams) Validate() error {
	if p.BaseOpJ < 0 || p.PortOpJ < 0 || p.StaticW < 0 || p.BaseAreaMM2 <= 0 {
		return fmt.Errorf("power: negative or zero core parameters")
	}
	if p.WidthExp == 0 {
		p.WidthExp = 1.8
	}
	if p.EnergyExp == 0 {
		p.EnergyExp = 0.5
	}
	if p.FloatMult == 0 {
		p.FloatMult = 1
	}
	if p.MemMult == 0 {
		p.MemMult = 1
	}
	return nil
}

// widthScale returns w^WidthExp.
func (p CoreParams) widthScale(width int) float64 {
	return math.Pow(float64(width), p.WidthExp)
}

// EnergyPerOpJ returns the dynamic energy of one retired op of unit class
// on a width-wide core.
func (p CoreParams) EnergyPerOpJ(width int) float64 {
	return p.BaseOpJ + p.PortOpJ*math.Pow(float64(width), p.EnergyExp)
}

// AreaMM2 returns the core area at the given issue width.
func (p CoreParams) AreaMM2(width int) float64 {
	return p.BaseAreaMM2 + p.PortAreaMM2*p.widthScale(width)
}

// StaticPowerW returns leakage at the given width (proportional to area).
func (p CoreParams) StaticPowerW(width int) float64 {
	return p.StaticW * p.AreaMM2(width) / p.AreaMM2(1)
}

// CoreActivity is the retired-operation census a timing run produces.
type CoreActivity struct {
	IntOps   uint64
	FloatOps uint64
	MemOps   uint64
	Branches uint64
	Cycles   uint64
	Seconds  float64
}

// Ops returns total retired operations.
func (a CoreActivity) Ops() uint64 {
	return a.IntOps + a.FloatOps + a.MemOps + a.Branches
}

// CoreEnergyJ integrates a run's core energy: per-class dynamic energy plus
// leakage over the run time.
func (p CoreParams) CoreEnergyJ(width int, act CoreActivity) float64 {
	eop := p.EnergyPerOpJ(width)
	dyn := eop*float64(act.IntOps+act.Branches) +
		eop*p.FloatMult*float64(act.FloatOps) +
		eop*p.MemMult*float64(act.MemOps)
	return dyn + p.StaticPowerW(width)*act.Seconds
}
