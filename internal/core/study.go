package core

import (
	"fmt"
	"sort"
	"strings"
)

// The study registry. Every sweep study the toolkit can run as a job is
// registered here once — name, validation, defaults, point count and the
// run function — and everything that dispatches studies (JobSpec
// validation and execution, the serve admission path, the sst-dse and
// sst-net CLIs) resolves through this table instead of keeping its own
// switch. Adding a study means adding one entry; the service, the CLIs
// and the error messages that enumerate valid kinds all pick it up.

// studyDef is one registry entry: the hooks a JobSpec of this kind
// resolves to.
type studyDef struct {
	// defaults resolves optional spec fields without mutating the input.
	defaults func(JobSpec) JobSpec
	// validate structurally checks a spec (already defaulted specs pass
	// identically — validation never depends on defaulting).
	validate func(JobSpec) error
	// points reports the defaulted spec's design-point count.
	points func(JobSpec) int
	// run executes the defaulted spec.
	run func(JobSpec, SweepOptions) (Result, error)
}

// studies is the registry, keyed by kind. Registration happens in this
// literal — the set is closed at compile time, so lookups need no lock.
var studies = map[string]*studyDef{
	"dse": {
		defaults: dseDefaults,
		validate: dseValidate,
		points: func(s JobSpec) int {
			return len(s.Apps) * len(s.Techs) * len(s.Widths)
		},
		run: func(s JobSpec, opts SweepOptions) (Result, error) {
			scale := Small
			if s.Scale == "full" {
				scale = Full
			}
			g, err := MemTechWidthSweep(s.Apps, s.Techs, s.Widths, scale, opts)
			if g == nil {
				return nil, err
			}
			return g, err
		},
	},
	"net": {
		defaults: netDefaults,
		validate: netValidate,
		points:   netPoints,
		run: func(s JobSpec, opts SweepOptions) (Result, error) {
			return NetDegradationStudy(s.netConfig(), opts)
		},
	},
	"net-power": {
		defaults: netDefaults,
		validate: netValidate,
		points:   netPoints,
		run: func(s JobSpec, opts SweepOptions) (Result, error) {
			return NetPowerStudy(s.netConfig(), opts)
		},
	},
}

// StudyKinds returns the registered study kinds, sorted — the single
// enumeration behind JobSpec validation errors and service documentation.
func StudyKinds() []string {
	kinds := make([]string, 0, len(studies))
	for k := range studies {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// kindList renders the registry for error messages: "dse, net or net-power".
func kindList() string {
	kinds := StudyKinds()
	if len(kinds) == 1 {
		return kinds[0]
	}
	return strings.Join(kinds[:len(kinds)-1], ", ") + " or " + kinds[len(kinds)-1]
}

// studyFor looks a kind up in the registry.
func studyFor(kind string) (*studyDef, error) {
	if kind == "" {
		return nil, fmt.Errorf("core: job spec: missing kind")
	}
	def, ok := studies[kind]
	if !ok {
		return nil, fmt.Errorf("core: job spec: unknown kind %q (want %s)", kind, kindList())
	}
	return def, nil
}

// Per-kind hooks. These are the former JobSpec switch arms, now owned by
// the registry entries above.

func dseDefaults(s JobSpec) JobSpec {
	if s.Scale == "" {
		s.Scale = "small"
	}
	return s
}

func dseValidate(s JobSpec) error {
	if len(s.Apps) == 0 || len(s.Techs) == 0 || len(s.Widths) == 0 {
		return fmt.Errorf("core: job spec: dse needs apps, techs and widths")
	}
	for _, a := range append(append([]string{}, s.Apps...), s.Techs...) {
		if strings.TrimSpace(a) == "" {
			return fmt.Errorf("core: job spec: blank app or tech name")
		}
	}
	for _, w := range s.Widths {
		if w <= 0 {
			return fmt.Errorf("core: job spec: width %d out of range", w)
		}
	}
	switch s.Scale {
	case "", "small", "full":
	default:
		return fmt.Errorf("core: job spec: scale %q (want small or full)", s.Scale)
	}
	return nil
}

func netDefaults(s JobSpec) JobSpec {
	def := DefaultNetStudy()
	if s.Nodes == 0 {
		s.Nodes = def.Nodes
	}
	if s.Steps == 0 {
		s.Steps = def.Steps
	}
	if len(s.Fractions) == 0 {
		s.Fractions = def.Fractions
	}
	return s
}

func netValidate(s JobSpec) error {
	if s.Nodes < 0 || s.Steps < 0 {
		return fmt.Errorf("core: job spec: negative nodes or steps")
	}
	for _, f := range s.Fractions {
		if f <= 0 || f > 1 {
			return fmt.Errorf("core: job spec: fraction %v out of (0, 1]", f)
		}
	}
	return nil
}

func netPoints(s JobSpec) int { return len(netStudyProfiles()) * len(s.Fractions) }

// netConfig assembles the net studies' config from a defaulted spec.
func (s JobSpec) netConfig() NetStudyConfig {
	return NetStudyConfig{Nodes: s.Nodes, Steps: s.Steps, Fractions: s.Fractions}
}
