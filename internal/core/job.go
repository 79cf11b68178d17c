package core

// Job-shaped entry points over the studies. A JobSpec is a study call as
// data: serializable, validatable, and re-runnable, which is exactly what
// a long-running sweep service needs — it persists the spec at admission,
// runs it through the normal SweepOptions machinery (journal, resume,
// retry, cache, arena, timeout), and after a crash re-runs the same spec
// with Resume set to converge on the same result. The CLIs and the
// service resolve specs through the study registry (see study.go);
// JobSpec's methods are thin delegations to it, so the registry is the
// single source of truth for which kinds exist and what they mean.

// JobSpec describes one sweep job. Kind selects the study from the
// registry (StudyKinds lists the valid values); the remaining fields
// parameterize it and unused ones are ignored. The zero values of
// optional fields resolve to the study defaults, so a minimal spec is a
// valid job.
type JobSpec struct {
	// Kind is the study family: "dse" (the memory-technology × issue-width
	// grid behind Figs. 10–12), "net" (the Fig. 9 injection-bandwidth
	// degradation study) or "net-power" (its energy roll-up).
	Kind string `json:"kind"`

	// dse: the grid axes and problem scale ("small" or "full"; default
	// "small" — a service should opt in to the expensive sizes).
	Apps   []string `json:"apps,omitempty"`
	Techs  []string `json:"techs,omitempty"`
	Widths []int    `json:"widths,omitempty"`
	Scale  string   `json:"scale,omitempty"`

	// net: machine size, timestep count and injection-bandwidth operating
	// points; zero values take DefaultNetStudy's shape.
	Nodes     int       `json:"nodes,omitempty"`
	Steps     int       `json:"steps,omitempty"`
	Fractions []float64 `json:"fractions,omitempty"`
}

// Validate checks the spec structurally — unknown kind, empty axes, bad
// scale — so admission can reject a job before persisting it. Semantic
// failures (an app name no frontend implements) surface later as point
// failures, like they do for the CLIs.
func (s JobSpec) Validate() error {
	def, err := studyFor(s.Kind)
	if err != nil {
		return err
	}
	return def.validate(s)
}

// Points reports how many design points the job will run, for progress
// and admission accounting. Zero for specs whose kind is unknown.
func (s JobSpec) Points() int {
	def, err := studyFor(s.Kind)
	if err != nil {
		return 0
	}
	return def.points(def.defaults(s))
}

// Run executes the job under opts — journal, resume, retry, cache, arena
// and cancellation all compose exactly as they do for the CLIs. The
// returned Result is non-nil whenever a partial grid exists, even on
// error, so a scheduler can persist what completed next to the failure.
func (s JobSpec) Run(opts SweepOptions) (Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	def := studies[s.Kind]
	return def.run(def.defaults(s), opts)
}
