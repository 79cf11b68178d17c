package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"sst/internal/config"
	"sst/internal/stats"
)

// Scale sets experiment problem sizes; Small keeps unit tests fast, Full is
// used by the benchmark harness.
type Scale int

const (
	// Small shrinks problems to smoke-test size.
	Small Scale = iota
	// Full runs the benchmark-harness sizes.
	Full
)

// SweepMachine builds the standard design-space-exploration node used by
// the Fig. 10–12 studies: a superscalar core of the given width over
// 32 KiB L1 and 512 KiB L2 caches and two channels of the given memory
// technology, running the given miniapp.
func SweepMachine(app, tech string, width int, scale Scale) *config.MachineConfig {
	wl := config.WorkloadSpec{Kind: app, Iters: 1}
	switch app {
	case "hpccg":
		if scale == Full {
			wl.N = 18
		} else {
			wl.N = 6
		}
	case "lulesh":
		if scale == Full {
			wl.N = 16384
		} else {
			wl.N = 768
		}
	case "stencil":
		if scale == Full {
			wl.N = 16
			wl.Iters = 2
		} else {
			wl.N = 8
		}
	case "stream", "fea":
		if scale == Full {
			wl.N = 8192
			wl.Iters = 2
		} else {
			wl.N = 1024
		}
	case "gups":
		if scale == Full {
			wl.N = 30000
		} else {
			wl.N = 4000
		}
	case "minimd":
		if scale == Full {
			wl.N = 4096
		} else {
			wl.N = 512
		}
	}
	return &config.MachineConfig{
		Name: fmt.Sprintf("%s-%s-w%d", app, tech, width),
		Node: config.NodeSpec{
			Cores: 1,
			CPU: config.CPUSpec{
				Kind: "superscalar", Freq: "3.2GHz", Width: width,
				Predictor: 1024, LoadQ: 8 * width, StoreQ: 8 * width,
			},
			L1:  &config.CacheSpec{Size: "32KB", Assoc: 4, HitLat: 2, MSHRs: 16, Prefetch: true, PrefetchDeg: 2},
			L2:  &config.CacheSpec{Size: "256KB", Assoc: 8, HitLat: 10, MSHRs: 32, Prefetch: true, PrefetchDeg: 8},
			Mem: config.MemSpec{Preset: tech, Channels: 1, CapacityGB: 4},
		},
		Workload: wl,
	}
}

// pointKeys memoizes, by (app, tech, width, scale), each sweep point's cache
// key — SweepMachine(app, tech, width, scale).CanonicalHash() — and journal
// name "app/tech/wN", so a repeated point (every point of an all-hit job) is
// keyed and named without building, hashing or formatting anything. The
// memo is exact because both are pure functions of those values and of
// presets compiled into the binary. It never stores an error (an entry may
// hold a name and no key yet), and it is cleared at pointKeyCap entries:
// JobSpec accepts any positive width, and a resident service must not grow
// it without limit.
var pointKeys struct {
	sync.Mutex
	m map[pointID]pointMemo
}

const pointKeyCap = 4096

type pointID struct {
	dseKey
	scale Scale
}

// pointMemo is one point's memo entry; an empty field is not yet known.
type pointMemo struct{ key, name string }

// lookup returns id's memo entry, empty when there is none.
func (id pointID) lookup() pointMemo {
	pointKeys.Lock()
	defer pointKeys.Unlock()
	return pointKeys.m[id]
}

// store records e's fields for id, keeping any field e leaves empty.
func (id pointID) store(e pointMemo) {
	pointKeys.Lock()
	defer pointKeys.Unlock()
	if pointKeys.m == nil || len(pointKeys.m) >= pointKeyCap {
		pointKeys.m = make(map[pointID]pointMemo)
	}
	old := pointKeys.m[id]
	pointKeys.m[id] = pointMemo{cmp.Or(e.key, old.key), cmp.Or(e.name, old.name)}
}

// pointKey returns the memoized cache key of one sweep point.
func pointKey(app, tech string, width int, scale Scale) (string, error) {
	id := pointID{dseKey{app, tech, width}, scale}
	if key := id.lookup().key; key != "" {
		return key, nil
	}
	key, err := SweepMachine(app, tech, width, scale).CanonicalHash()
	if err != nil {
		return "", err
	}
	id.store(pointMemo{key: key})
	return key, nil
}

// pointName returns the memoized journal name "app/tech/wN" of one sweep
// point.
func pointName(app, tech string, width int, scale Scale) string {
	id := pointID{dseKey{app, tech, width}, scale}
	name := id.lookup().name
	if name == "" {
		name = fmt.Sprintf("%s/%s/w%d", app, tech, width)
		id.store(pointMemo{name: name})
	}
	return name
}

// RunMachine builds and runs one machine config.
func RunMachine(cfg *config.MachineConfig) (*NodeResult, error) {
	return RunMachineCtx(context.Background(), cfg)
}

// RunMachineCtx is RunMachine with cooperative cancellation: when ctx
// expires (sweep cancellation, a per-point deadline) the node's engine is
// interrupted at its next event and the run returns an error wrapping
// sim.ErrInterrupted instead of running to completion.
func RunMachineCtx(ctx context.Context, cfg *config.MachineConfig) (*NodeResult, error) {
	// Inside a sweep the worker's arena rides the context (see runGrid);
	// outside one arenaFrom returns nil and the build allocates fresh.
	n, err := BuildNodeArena(cfg, arenaFrom(ctx))
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, n.Sim.Engine().Interrupt)
	defer stop()
	res, err := n.Run()
	// The interrupt lands on a separate goroutine, so a run can finish in
	// the gap between its deadline expiring and the interrupt arriving.
	// The deadline is the contract: a run that crossed it counts as timed
	// out either way. Plain cancellation keeps its drain semantics — a
	// run that completes before the interrupt lands stays a success.
	if err == nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return nil, fmt.Errorf("core: machine run exceeded its deadline: %w", context.DeadlineExceeded)
	}
	return res, err
}

// DSEPoint is one (app, tech, width) sample of the design space.
type DSEPoint struct {
	App    string
	Tech   string
	Width  int
	Result *NodeResult
	// Err is set when this point's simulation failed (or panicked, or was
	// skipped by sweep cancellation); Result is then nil and the table
	// renderers skip the cell.
	Err error
}

// DSEGrid is the full sweep result.
type DSEGrid struct {
	Points []DSEPoint

	// index maps (app, tech, width) to the point's position in Points.
	// The table renderers call Find inside triple loops, so the linear
	// scan it replaces was O(points) per lookup. Built lazily and rebuilt
	// whenever Points has grown since; points must not be relabeled in
	// place between Find calls.
	index map[dseKey]int
}

// dseKey identifies one design point in the grid index.
type dseKey struct {
	app, tech string
	width     int
}

func (g *DSEGrid) buildIndex() {
	g.index = make(map[dseKey]int, len(g.Points))
	for i := range g.Points {
		p := &g.Points[i]
		g.index[dseKey{p.App, p.Tech, p.Width}] = i
	}
}

// Find returns the point for (app, tech, width), or nil.
func (g *DSEGrid) Find(app, tech string, width int) *DSEPoint {
	if len(g.index) != len(g.Points) {
		g.buildIndex()
	}
	if i, ok := g.index[dseKey{app, tech, width}]; ok {
		return &g.Points[i]
	}
	return nil
}

// Failed returns the points whose simulations did not produce a result, in
// grid order. Empty on a fully successful sweep.
func (g *DSEGrid) Failed() []*DSEPoint {
	var out []*DSEPoint
	for i := range g.Points {
		if g.Points[i].Err != nil {
			out = append(out, &g.Points[i])
		}
	}
	return out
}

// dseTitle and dseHeader head the grid table and its CSV.
const (
	dseTitle  = "Design-space sweep: app x memory technology x issue width"
	dseHeader = "app,tech,width,runtime_ms,ipc,mem_gbs,node_watts,err"
)

var dseColumns = strings.Split(dseHeader, ",")

// figures returns the four figure cells of p's grid row, or ok false and the
// err cell's text: a failed point's first error line.
func (p *DSEPoint) figures() (v [4]float64, msg string, ok bool) {
	if r := p.Result; r != nil {
		return [4]float64{r.Seconds * 1e3, r.IPC, r.MemBandwidth / 1e9, r.Budget.AvgPowerW()}, "", true
	}
	msg = "no result"
	if p.Err != nil {
		msg = firstLine(p.Err.Error())
	}
	return v, msg, false
}

// Table implements Result: the full grid as one flat table, one row per
// point. Failed points render their first error line in the err column.
func (g *DSEGrid) Table() *stats.Table {
	t := stats.NewTable(dseTitle, dseColumns...)
	for i := range g.Points {
		p := &g.Points[i]
		v, msg, ok := p.figures()
		if !ok {
			t.AddRow(p.App, p.Tech, p.Width, "", "", "", "", msg)
			continue
		}
		t.AddRow(p.App, p.Tech, p.Width, v[0], v[1], v[2], v[3], "")
	}
	return t
}

// WriteJSON implements Result.
func (g *DSEGrid) WriteJSON(w io.Writer) error { return g.Table().WriteJSON(w) }

// WriteCSV implements Result. It appends the bytes Table().WriteCSV writes,
// by the same strconv calls, straight into one buffer with no table and no
// boxed cells: for a job whose points all hit the cache it is a large share
// of the job.
func (g *DSEGrid) WriteCSV(w io.Writer) error {
	b := append(make([]byte, 0, 128+64*len(g.Points)), "# "+dseTitle+"\n"+dseHeader+"\n"...)
	for i := range g.Points {
		p := &g.Points[i]
		b = append(append(append(append(b, p.App...), ','), p.Tech...), ',')
		b = append(strconv.AppendInt(b, int64(p.Width), 10), ',')
		if v, msg, ok := p.figures(); ok {
			for _, f := range v {
				b = append(strconv.AppendFloat(b, f, 'g', 4, 64), ',')
			}
		} else {
			b = append(append(b, ",,,,"...), msg...)
		}
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

// MemTechWidthSweep runs the cross product of apps × technologies × widths
// — the single sweep behind Figs. 10, 11 and 12. Points are independent
// single-node simulations, so they execute across the sweep worker pool;
// grid order is the cross-product order regardless of worker count. With
// opts.Journal set, finished points are durably journaled (keyed
// "app/tech/wN") and opts.Resume restores them instead of re-running;
// opts.PointTimeout bounds each point's wall-clock time. A sweep with
// failed points returns the partial grid plus an error wrapping
// ErrPointFailed.
func MemTechWidthSweep(apps, techs []string, widths []int, scale Scale, opts SweepOptions) (*DSEGrid, error) {
	g := &DSEGrid{Points: make([]DSEPoint, 0, len(apps)*len(techs)*len(widths))}
	for _, app := range apps {
		for _, tech := range techs {
			for _, w := range widths {
				g.Points = append(g.Points, DSEPoint{App: app, Tech: tech, Width: w})
			}
		}
	}
	// Only a miss builds its machine; a hit needs just its memoized key.
	pts := grid[*NodeResult]{
		n: len(g.Points),
		run: func(ctx context.Context, i int) (*NodeResult, error) {
			p := &g.Points[i]
			return RunMachineCtx(ctx, SweepMachine(p.App, p.Tech, p.Width, scale))
		},
		key: func(i int) (string, error) {
			p := &g.Points[i]
			return pointKey(p.App, p.Tech, p.Width, scale)
		},
		clone: cloneNodeResult,
	}
	pts.name = func(i int) string {
		p := &g.Points[i]
		return pointName(p.App, p.Tech, p.Width, scale)
	}
	pts.label = func(i int) string { return "core: sweep " + pts.name(i) }
	res, errs, err := runGrid(opts, pts)
	pointFailed := false
	for i := range errs {
		g.Points[i].Result, g.Points[i].Err = res[i], errs[i]
		pointFailed = pointFailed || errs[i] != nil
	}
	g.buildIndex()
	if pointFailed {
		// Distinct from a sweep that could not run at all (e.g. an
		// unreadable journal): that error passes through unwrapped.
		err = fmt.Errorf("%w: %w", ErrPointFailed, err)
	}
	// The grid is returned even on error: completed points keep their
	// results so callers can render the partial sweep next to the
	// per-point failures.
	return g, err
}

// Fig10Table renders application performance by memory technology: runtime
// and speedup relative to the DDR3 baseline at each width.
func Fig10Table(g *DSEGrid, apps, techs []string, widths []int, baseline string) *stats.Table {
	t := stats.NewTable("Fig 10: application performance with different memory systems",
		"app", "width", "tech", "runtime_ms", "speedup_vs_"+baseline)
	for _, app := range apps {
		for _, w := range widths {
			base := g.Find(app, baseline, w)
			for _, tech := range techs {
				p := g.Find(app, tech, w)
				if p == nil || p.Result == nil || base == nil || base.Result == nil {
					continue
				}
				t.AddRow(app, w, tech, p.Result.Seconds*1e3,
					base.Result.Seconds/p.Result.Seconds)
			}
		}
	}
	return t
}

// Fig11Table renders power and cost efficiency by memory technology.
func Fig11Table(g *DSEGrid, apps, techs []string, widths []int) *stats.Table {
	t := stats.NewTable("Fig 11: power and cost with different memory systems",
		"app", "width", "tech", "node_watts", "perf_per_watt", "node_cost_usd", "perf_per_dollar")
	for _, app := range apps {
		for _, w := range widths {
			for _, tech := range techs {
				p := g.Find(app, tech, w)
				if p == nil || p.Result == nil {
					continue
				}
				r := p.Result
				t.AddRow(app, w, tech, r.Budget.AvgPowerW(),
					r.PerfPerWatt(), r.Budget.TotalCostUSD(), r.PerfPerDollar())
			}
		}
	}
	return t
}

// Fig12Table renders issue-width scaling on a fixed memory technology:
// speedup, power and the efficiency metrics, all relative to width 1.
func Fig12Table(g *DSEGrid, apps []string, tech string, widths []int) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Fig 12: cost and power efficiency vs issue width (%s)", tech),
		"app", "width", "speedup", "power_ratio", "perf_per_watt", "perf_per_dollar", "area_mm2")
	for _, app := range apps {
		base := g.Find(app, tech, widths[0])
		if base == nil || base.Result == nil {
			continue
		}
		for _, w := range widths {
			p := g.Find(app, tech, w)
			if p == nil || p.Result == nil {
				continue
			}
			r := p.Result
			t.AddRow(app, w,
				base.Result.Seconds/r.Seconds,
				r.Budget.AvgPowerW()/base.Result.Budget.AvgPowerW(),
				r.PerfPerWatt(), r.PerfPerDollar(), r.AreaMM2)
		}
	}
	return t
}

// MemSpeedResult is the memory-speed study's Result: the rendered table
// plus Rel[app][grade] = runtime relative to the fastest grade.
type MemSpeedResult struct {
	TableResult
	Rel map[string]map[string]float64
}

// MemSpeedStudy runs the Fig. 3 analogue: FEA-like (compute-bound) and
// CG-solver (bandwidth-bound) phases across DDR3 speed grades, reporting
// runtime relative to the fastest grade. The expected shape: the solver
// slows as memory slows, the assembly phase barely moves.
func MemSpeedStudy(grades []string, scale Scale, opts SweepOptions) (*MemSpeedResult, error) {
	apps := []string{"fea", "hpccg"}
	t := stats.NewTable("Fig 3: effect of memory speed on FEA and solver phases",
		"phase", "memory", "runtime_ms", "relative_to_fastest")
	rel := map[string]map[string]float64{}
	// The app × grade cells are independent node runs: fan them out, then
	// derive the relative columns in the original row order.
	cfgs := make([]*config.MachineConfig, 0, len(apps)*len(grades))
	for _, app := range apps {
		for _, gr := range grades {
			cfgs = append(cfgs, SweepMachine(app, gr, 4, scale))
		}
	}
	flat, err := RunMachines(cfgs, opts)
	if err != nil {
		return nil, err
	}
	for ai, app := range apps {
		rel[app] = map[string]float64{}
		fastest := flat[ai*len(grades)+len(grades)-1].Seconds
		for gi, gr := range grades {
			r := flat[ai*len(grades)+gi]
			rel[app][gr] = r.Seconds / fastest
			t.AddRow(app, gr, r.Seconds*1e3, r.Seconds/fastest)
		}
	}
	return &MemSpeedResult{TableResult: TableResult{Tab: t}, Rel: rel}, nil
}
