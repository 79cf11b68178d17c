package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"sst/internal/core"
	"sst/internal/iofault"
	"sst/internal/obs"
)

// workload is one set of inputs the benchmark runs. Every workload is a
// sequence of rounds: set-up (fresh state, warmed) followed by a fixed op
// set — reps sweep calls, or one batch of jobs — so that two runs do the
// same simulated work however long they measure. The names are what later
// issues refer to; bench/README.md says why each exists.
type workload struct {
	name string

	// reps is how many times a round runs the fixed op set.
	reps int

	// Sweep workloads run one spec in-process through the sweep scheduler.
	sweep *core.JobSpec

	// Serve workloads post jobs drawn from pool to an in-process sst-serve
	// over HTTP, jobs of them per rep.
	pool []core.JobSpec
	jobs int
	// allHits (serve.hot) runs the whole pool once during set-up, so every
	// timed point is a cache hit; without it (serve.cold) the pool's specs
	// are distinct and every timed point is a miss.
	allHits bool
}

var (
	allApps    = []string{"hpccg", "lulesh", "stencil", "stream", "fea", "gups", "minimd"}
	allTechs   = []string{"ddr2-800", "ddr3-800", "ddr3-1066", "ddr3-1333", "ddr3-1600", "gddr5-4000"}
	paperTechs = []string{"ddr2-800", "ddr3-1333", "gddr5-4000"}
	widths     = []int{1, 2, 4, 8}
)

// workloads returns the five workloads at the committed sizes, or at
// smoke-test sizes when tiny.
func workloads(tiny bool) []*workload {
	scale, net := "full", core.DefaultNetStudy()
	dseTechs, dseWidths := paperTechs, widths
	hotGrids, hotApps, hotTechs, hotWidths, hotJobs := 6, 4, allTechs, widths, 1200
	coldTechs, coldWidths := paperTechs, widths
	paperReps, gupsReps, netReps := 3, 6, 5
	if tiny {
		scale, net = "small", core.NetStudyConfig{Nodes: 8, Steps: 1, Fractions: []float64{1, 0.5}}
		dseTechs, dseWidths = paperTechs[:1], widths[1:3]
		hotGrids, hotApps, hotTechs, hotWidths, hotJobs = 2, 2, paperTechs[:2], widths[:2], 20
		coldWidths = widths[2:3]
		paperReps, gupsReps, netReps = 1, 1, 1
	}
	hot := &workload{name: "serve.hot", reps: 1, jobs: hotJobs, allHits: true}
	for g := 0; g < hotGrids; g++ {
		apps := make([]string, hotApps)
		for k := range apps {
			apps[k] = allApps[(g+k)%len(allApps)]
		}
		hot.pool = append(hot.pool, core.JobSpec{Kind: "dse", Apps: apps, Techs: hotTechs, Widths: hotWidths, Scale: "small"})
	}
	cold := &workload{name: "serve.cold", reps: 1}
	for _, app := range allApps {
		for _, tech := range coldTechs {
			for _, w := range coldWidths {
				cold.pool = append(cold.pool, core.JobSpec{Kind: "dse", Apps: []string{app}, Techs: []string{tech}, Widths: []int{w}, Scale: scale})
			}
		}
	}
	cold.jobs = len(cold.pool)
	return []*workload{
		{name: "dse.paper", reps: paperReps,
			sweep: &core.JobSpec{Kind: "dse", Apps: []string{"hpccg", "lulesh"}, Techs: dseTechs, Widths: dseWidths, Scale: scale}},
		{name: "dse.gups", reps: gupsReps,
			sweep: &core.JobSpec{Kind: "dse", Apps: []string{"gups"}, Techs: dseTechs, Widths: dseWidths, Scale: scale}},
		{name: "net.torus", reps: netReps,
			sweep: &core.JobSpec{Kind: "net", Nodes: net.Nodes, Steps: net.Steps, Fractions: net.Fractions}},
		hot, cold,
	}
}

// specs lists every spec whose result CSV the workload verifies.
func (wl *workload) specs() []core.JobSpec {
	if wl.sweep != nil {
		return []core.JobSpec{*wl.sweep}
	}
	return wl.pool
}

// pointsPerRep is the number of design points one rep completes.
func (wl *workload) pointsPerRep() int {
	if wl.sweep != nil {
		return wl.sweep.Points()
	}
	n := 0
	for i := 0; i < wl.jobs; i++ {
		n += wl.pool[i%len(wl.pool)].Points()
	}
	return n
}

// specKey is a spec's canonical form: the key of its golden digest.
func specKey(s core.JobSpec) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a struct of strings, ints and floats always marshals
	}
	return string(b)
}

// digest is the SHA-256 of a result CSV. The CSVs hold only simulated
// columns, so the digests are the same on every host.
func digest(csv []byte) string {
	sum := sha256.Sum256(csv)
	return hex.EncodeToString(sum[:])
}

// resultDigest renders res the way sst-serve writes result.csv. A sweep
// that produced nothing has no result to render.
func resultDigest(res core.Result) (string, error) {
	if res == nil {
		return "", fmt.Errorf("no result")
	}
	var buf bytes.Buffer
	if err := core.WriteResults(&buf, core.FormatCSV, res); err != nil {
		return "", err
	}
	return digest(buf.Bytes()), nil
}

// measured is what a window of rounds observed.
type measured struct {
	setupS []float64 // one per round
	repS   []float64 // wall of each timed rep
	// Job latency — a job for serve, a design point for sweeps — as each
	// rep's median and 95th percentile, and the sample count behind them.
	p50MS, p95MS []float64
	samples      int

	// attempted and failed count design points for sweeps and jobs for
	// serve. warmFailed counts failures during set-up, which make the run
	// incorrect without being timed ops.
	attempted, failed, warmFailed int

	// Simulated work of one rep. It must repeat exactly; countsVary
	// records that it did not.
	simEvents, simRetired uint64
	countsVary            bool

	// Serve only: client-side phases of each timed job, the storage and
	// cache activity of the timed reps, and the admission queue's sheds.
	submitMS, execMS, fetchMS []float64
	jobs                      int
	fs                        fsCounts
	cacheHits, cacheMisses    int64
	shed                      int64
}

// noteLatencies folds one rep's job latencies into m.
func (m *measured) noteLatencies(ms []float64) {
	m.p50MS = append(m.p50MS, median(ms))
	m.p95MS = append(m.p95MS, percentile(ms, 95))
	m.samples += len(ms)
}

// noteCounts folds one rep's simulated work into m.
func (m *measured) noteCounts(events, retired uint64) {
	if len(m.repS) > 0 && (events != m.simEvents || retired != m.simRetired) {
		m.countsVary = true
	}
	m.simEvents, m.simRetired = events, retired
}

// round is one set-up's worth of state.
type round interface {
	// rep runs the fixed op set once and folds what it saw into m.
	rep(m *measured, parent int)
	close() error
}

// harness carries what every round needs.
type harness struct {
	workers int // W: sweep workers and closed-loop clients
	seed    uint64
	tiny    bool
	golden  map[string]string
}

// measure runs rounds of wl until the timed reps add up to seconds, and at
// least minRounds of them.
func (h *harness) measure(wl *workload, seconds float64, minRounds int, rec *recorder, parent int) (*measured, error) {
	m := &measured{}
	fs := &countFS{inner: iofault.NewMemFS(h.seed), rec: rec}
	timed := 0.0
	for r := 0; r < minRounds || timed < seconds; r++ {
		rs := rec.begin(parent, "round", "", 0)
		ss := rec.begin(rs, "setup", "", 0)
		t0 := time.Now()
		var rd round
		var err error
		if wl.sweep != nil {
			rd, err = h.newSweepRound(wl, m, rec, ss)
		} else {
			rd, err = h.newServeRound(wl, r, m, fs, rec, ss)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		rec.end(ss)
		for i := 0; i < wl.reps; i++ {
			rd.rep(m, rs)
			timed += m.repS[len(m.repS)-1]
		}
		if err := rd.close(); err != nil {
			return nil, fmt.Errorf("%s: tear-down: %w", wl.name, err)
		}
		rec.end(rs)
	}
	return m, nil
}

type sweepRound struct {
	h     *harness
	wl    *workload
	rec   *recorder
	arena *core.ArenaPool
	want  string
	n     int
}

// newSweepRound is a sweep workload's set-up: a fresh arena pool and one
// untimed, verified rep that warms it.
func (h *harness) newSweepRound(wl *workload, m *measured, rec *recorder, parent int) (round, error) {
	want, ok := h.golden[specKey(*wl.sweep)]
	if !ok {
		return nil, fmt.Errorf("no golden digest for %s (run with -update-golden)", specKey(*wl.sweep))
	}
	s := &sweepRound{h: h, wl: wl, rec: rec, arena: core.NewArenaPool(), want: want}
	var warm measured
	s.run(&warm, parent, h.workers)
	m.warmFailed += warm.failed
	return s, nil
}

func (s *sweepRound) rep(m *measured, parent int) { s.run(m, parent, s.h.workers) }
func (s *sweepRound) close() error                { return nil }

// run executes the sweep once with the given worker count, verifies its
// CSV against the golden digest and folds the rep into m.
func (s *sweepRound) run(m *measured, parent, workers int) {
	s.n++
	group := fmt.Sprintf("rep%d", s.n)
	rs := s.rec.begin(parent, "rep", group, 0)
	var points obs.SweepCollector
	ss := s.rec.begin(rs, "sweep", group, 0)
	t0 := time.Now()
	res, _ := s.wl.sweep.Run(core.SweepOptions{Workers: workers, Arena: s.arena, Metrics: &points})
	wall := time.Since(t0)
	s.rec.end(ss)

	vs := s.rec.begin(rs, "verify", group, 0)
	failed := 0
	var lat []float64
	for _, p := range points.Points() {
		s.rec.add(ss, "point", group, 1+p.Worker, p.Start, p.Wall)
		lat = append(lat, float64(p.Wall)/1e6)
		if p.Err != nil {
			failed++
		}
	}
	var events, retired uint64
	if g, ok := res.(*core.DSEGrid); ok {
		for _, p := range g.Points {
			if p.Result != nil {
				events += p.Result.Events
				retired += p.Result.Retired
			}
		}
	}
	n := s.wl.sweep.Points()
	// A wrong table makes every point of the rep suspect.
	if got, err := resultDigest(res); err != nil || got != s.want {
		failed = n
	}
	s.rec.end(vs)
	s.rec.end(rs)

	m.noteCounts(events, retired)
	m.noteLatencies(lat)
	m.repS = append(m.repS, wall.Seconds())
	m.attempted += n
	m.failed += failed
}

// shuffled returns the rep's job order: jobs indices into the pool, each
// spec equally often, permuted by the seed. The set — hence the work — is
// the same for every seed.
func shuffled(jobs, pool int, seed uint64, round int) []int {
	order := make([]int, jobs)
	for i := range order {
		order[i] = i % pool
	}
	rng := rand.New(rand.NewSource(int64(seed*0x9e3779b97f4a7c15 + uint64(round))))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}
