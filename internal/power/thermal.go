package power

import (
	"fmt"
	"math"
)

// ThermalParams is a lumped-RC die thermal model with
// leakage–temperature feedback: dynamic power heats the die, heat raises
// leakage exponentially, leakage adds power. SteadyState iterates to the
// fixed point. This is the "accurate temperature modeling is required for
// accurate power and energy modeling due to its effect on leakage current"
// coupling the prediction methodology calls out.
type ThermalParams struct {
	// AmbientC is the heat-sink reference temperature.
	AmbientC float64
	// ResistanceCPerW is the junction-to-ambient thermal resistance.
	ResistanceCPerW float64
	// LeakDoubleC is the temperature increase that doubles leakage
	// (typically 10–20 °C for the era's processes).
	LeakDoubleC float64
	// RefC is the temperature at which CoreParams.StaticW is specified.
	RefC float64
	// MaxC is the throttle/assert limit.
	MaxC float64
}

// DefaultThermalParams resembles a mid-2000s desktop package.
func DefaultThermalParams() ThermalParams {
	return ThermalParams{
		AmbientC:        45,
		ResistanceCPerW: 0.6,
		LeakDoubleC:     15,
		RefC:            65,
		MaxC:            110,
	}
}

// Validate checks ranges.
func (p *ThermalParams) Validate() error {
	if p.ResistanceCPerW <= 0 || p.LeakDoubleC <= 0 {
		return fmt.Errorf("power: thermal resistance and leakage slope must be positive")
	}
	if p.MaxC == 0 {
		p.MaxC = 110
	}
	return nil
}

// LeakageAt scales a leakage power specified at RefC to temperature tC.
func (p ThermalParams) LeakageAt(leakRefW, tC float64) float64 {
	return leakRefW * math.Pow(2, (tC-p.RefC)/p.LeakDoubleC)
}

// ThermalState is a steady-state solution.
type ThermalState struct {
	// TempC is the converged junction temperature.
	TempC float64
	// LeakageW is leakage at that temperature.
	LeakageW float64
	// TotalW is dynamic + leakage.
	TotalW float64
	// Throttled reports the fixed point exceeded MaxC (a real design
	// would throttle; the model reports it for the DSE tables).
	Throttled bool
	// Iterations the solver took.
	Iterations int
}

// SteadyState solves T = ambient + R·(dyn + leak(T)) by fixed-point
// iteration with damping; it converges for any physical configuration
// below thermal runaway and reports runaway as Throttled at MaxC.
func (p ThermalParams) SteadyState(dynamicW, leakRefW float64) ThermalState {
	t := p.AmbientC + p.ResistanceCPerW*dynamicW
	var st ThermalState
	for i := 0; i < 200; i++ {
		leak := p.LeakageAt(leakRefW, t)
		next := p.AmbientC + p.ResistanceCPerW*(dynamicW+leak)
		if next > p.MaxC {
			next = p.MaxC
			st.Throttled = true
		}
		st.Iterations = i + 1
		if math.Abs(next-t) < 1e-6 {
			t = next
			break
		}
		t = t + 0.5*(next-t)
	}
	st.TempC = t
	st.LeakageW = p.LeakageAt(leakRefW, t)
	st.TotalW = dynamicW + st.LeakageW
	if st.Throttled {
		st.TotalW = (p.MaxC - p.AmbientC) / p.ResistanceCPerW
	}
	return st
}

// ReliabilityParams converts temperature into failure rates — the
// methodology's reliability objective. Failure rates use the standard FIT
// unit (failures per 10^9 device-hours) with Arrhenius temperature
// acceleration; thermal cycling adds a Coffin–Manson term.
type ReliabilityParams struct {
	// BaseFITPerMM2 is the failure rate density at RefC.
	BaseFITPerMM2 float64
	// ActivationEV is the Arrhenius activation energy (typ. 0.7 eV).
	ActivationEV float64
	// RefC anchors the base rate.
	RefC float64
	// CycleFITPerDeltaC adds FIT per unit area per °C of regular thermal
	// cycling amplitude (Coffin–Manson linearized).
	CycleFITPerDeltaC float64
}

// DefaultReliabilityParams gives plausible mid-2000s numbers.
func DefaultReliabilityParams() ReliabilityParams {
	return ReliabilityParams{
		BaseFITPerMM2:     0.5,
		ActivationEV:      0.7,
		RefC:              55,
		CycleFITPerDeltaC: 0.02,
	}
}

const boltzmannEVPerK = 8.617e-5

// FIT returns the failure rate of areaMM2 of silicon at tC with thermal
// cycles of amplitude cycleDeltaC.
func (r ReliabilityParams) FIT(areaMM2, tC, cycleDeltaC float64) float64 {
	tK := tC + 273.15
	refK := r.RefC + 273.15
	accel := math.Exp(r.ActivationEV / boltzmannEVPerK * (1/refK - 1/tK))
	fit := r.BaseFITPerMM2 * areaMM2 * accel
	fit += r.CycleFITPerDeltaC * areaMM2 * cycleDeltaC
	return fit
}

// MTBFHours converts a FIT rate to mean time between failures.
func MTBFHours(fit float64) float64 {
	if fit <= 0 {
		return math.Inf(1)
	}
	return 1e9 / fit
}
