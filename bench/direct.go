package main

import (
	"time"

	"sst/internal/config"
	"sst/internal/core"
	proxies "sst/internal/workload"
)

// specConfigs expands a dse spec into its design points' machine configs,
// in grid order.
func specConfigs(s core.JobSpec) []*config.MachineConfig {
	scale := core.Small
	if s.Scale == "full" {
		scale = core.Full
	}
	var cfgs []*config.MachineConfig
	for _, app := range s.Apps {
		for _, tech := range s.Techs {
			for _, w := range s.Widths {
				cfgs = append(cfgs, core.SweepMachine(app, tech, w, scale))
			}
		}
	}
	return cfgs
}

// directPass runs a sample of the workload's design points one at a time,
// outside the sweep scheduler, with a span around each of the three calls a
// point is made of: core.BuildNodeArena, NodeModel.Run, NodeModel.Close. It
// returns the mean build and run time per point and the host time per
// simulated event. The network study's points have no separate build step
// and expose no event count, so net.torus reports run time only.
func directPass(wl *workload, tiny bool, rec *recorder, parent int) (buildMS, runMS, nsPerEvent float64, err error) {
	ds := rec.begin(parent, "direct", "direct", 0)
	defer rec.end(ds)
	sample := 6
	if tiny {
		sample = 2
	}
	var build, run time.Duration
	var events uint64
	n := 0
	timed := func(name string, fn func()) time.Duration {
		s := rec.begin(ds, name, "direct", 0)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		rec.end(s)
		return d
	}

	if wl.sweep != nil && wl.sweep.Kind == "net" {
		for _, p := range []proxies.CommProfile{proxies.CTHProfile, proxies.SAGEProfile,
			proxies.XNOBELProfile, proxies.CharonProfile}[:min(sample, 4)] {
			run += timed("point.run", func() {
				_, _, err = core.RunNetPoint(p, wl.sweep.Nodes, wl.sweep.Steps, wl.sweep.Fractions[0])
			})
			if err != nil {
				return 0, 0, 0, err
			}
			n++
		}
		return 0, float64(run) / 1e6 / float64(n), 0, nil
	}

	var cfgs []*config.MachineConfig
	for _, spec := range wl.specs() {
		cfgs = append(cfgs, specConfigs(spec)...)
	}
	arena := core.NewPointArena()
	for i := 0; i < sample; i++ {
		cfg := cfgs[i*len(cfgs)/sample]
		var node *core.NodeModel
		var res *core.NodeResult
		build += timed("point.build", func() { node, err = core.BuildNodeArena(cfg, arena) })
		if err != nil {
			return 0, 0, 0, err
		}
		run += timed("point.run", func() { res, err = node.Run() })
		timed("point.close", node.Close)
		if err != nil {
			return 0, 0, 0, err
		}
		events += res.Events
		n++
	}
	return float64(build) / 1e6 / float64(n), float64(run) / 1e6 / float64(n), float64(run) / float64(events), nil
}
