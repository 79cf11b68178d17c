package noc_test

// End-to-end crash safety of the composition core.System runs:
// skeleton apps over the partitioned network are cut at a barrier,
// snapshotted, restored into a freshly built twin and continued — and
// elapsed times, wait times, message counts and latency statistics must be
// bit-identical to the uninterrupted run.

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"

	"sst/internal/config"
	"sst/internal/noc"
	"sst/internal/par"
	"sst/internal/sim"
	"sst/internal/workload"
)

// sysSig is one run's full observable outcome.
type sysSig struct {
	Elapsed []sim.Time
	Waits   []sim.Time
	Msgs    uint64
	Bytes   uint64
	Lat     float64
}

// system is core.System's composition: a snapshot-enabled runner, the
// partitioned network, and one app per rank group.
type system struct {
	runner *par.Runner
	net    *noc.Network
	apps   []*workload.App
}

func buildSystem(t *testing.T, topo noc.Topology, cfg noc.NetConfig, profile workload.CommProfile, nranks int) *system {
	t.Helper()
	runner, err := par.NewRunner(nranks)
	if err != nil {
		t.Fatal(err)
	}
	runner.EnableSnapshots()
	net, err := noc.NewPartitionedNetwork(runner, topo, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ports := make([][]workload.MessagePort, nranks)
	local := make([][]*workload.Script, nranks)
	for i, s := range profile.Scripts(topo.NumNodes()) {
		home := net.RankOfNode(i)
		ports[home] = append(ports[home], net.NIC(i))
		local[home] = append(local[home], s)
	}
	s := &system{runner: runner, net: net}
	for p := 0; p < nranks; p++ {
		if len(local[p]) == 0 {
			continue
		}
		app, err := workload.NewAppOnPorts(runner.Rank(p).Engine(),
			fmt.Sprintf("%s.rank%d", profile.Name, p), ports[p], local[p])
		if err != nil {
			t.Fatal(err)
		}
		s.apps = append(s.apps, app)
	}
	return s
}

func (s *system) start() {
	for _, app := range s.apps {
		app.Start(nil)
	}
}

func (s *system) runAll(t *testing.T) sysSig {
	t.Helper()
	if _, err := s.runner.RunAll(); err != nil {
		t.Fatal(err)
	}
	sig := sysSig{Msgs: s.net.Messages(), Bytes: s.net.BytesDelivered(), Lat: s.net.MessageLatencyMean()}
	for _, app := range s.apps {
		if !app.Done() {
			t.Fatalf("app %s did not complete", app.Name())
		}
		sig.Elapsed = append(sig.Elapsed, app.Elapsed())
		sig.Waits = append(sig.Waits, app.MaxWaitTime())
	}
	return sig
}

var snapProfile = workload.CommProfile{
	Name: "mini", Steps: 3, ComputePerStep: 2 * sim.Microsecond,
	HaloBytes: 8 << 10, Neighbors: 1, AllReduces: 1,
}

// TestSystemKillRestore is the composition's crash-safety property at every
// rank count, with barriers in the early and late
// thirds of the run.
func TestSystemKillRestore(t *testing.T) {
	topo, err := noc.NewTorus3D(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := func(nranks int) *system {
		return buildSystem(t, topo, noc.DefaultConfig(), snapProfile, nranks)
	}
	rankCounts := []int{1, 2, 4, 8}
	if testing.Short() {
		rankCounts = []int{1, 4}
	}
	for _, nranks := range rankCounts {
		ref := build(nranks)
		ref.start()
		want := ref.runAll(t)
		end := slices.Max(want.Elapsed)
		if want.Msgs == 0 || end == 0 {
			t.Fatal("reference system run did nothing; test is vacuous")
		}
		for _, barrier := range []sim.Time{end / 3, 2 * end / 3} {
			cut := build(nranks)
			cut.start()
			if _, err := cut.runner.Run(barrier); err != nil {
				t.Fatal(err)
			}
			var file bytes.Buffer
			if err := cut.runner.SaveTo(&file); err != nil {
				t.Fatalf("SaveTo: %v", err)
			}
			restored := build(nranks)
			if err := restored.runner.LoadFrom(&file); err != nil {
				t.Fatalf("LoadFrom: %v", err)
			}
			if got := restored.runAll(t); !reflect.DeepEqual(got, want) {
				t.Errorf("nranks=%d barrier=%v: restored run diverged\n got %+v\nwant %+v",
					nranks, barrier, got, want)
			}
		}
	}
}

// TestPartitioningInvariants pins what holds across rank counts on traffic
// with same-instant link ties: CTH halos on a 32-node torus, where packets
// reach a router at the same picosecond from a neighbor rank and from a
// local injection. A single engine serves such ties in event-insertion
// order, a partitioned run in the runner's canonical cross-rank order, so
// individual message latencies (and their mean, in the sixth significant digit) may
// differ. Completion time, message and byte counts, per-link traffic and
// energy may not.
func TestPartitioningInvariants(t *testing.T) {
	topo, err := noc.NewTorus3D(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	profile := workload.CTHProfile
	profile.Steps = 2
	type outcome struct {
		end           sim.Time
		msgs, bytes   uint64
		util, hottest float64
		energy        noc.NetworkEnergy
	}
	var ref outcome
	for _, nranks := range []int{1, 2, 4} {
		s := buildSystem(t, topo, noc.DefaultConfig(), profile, nranks)
		s.start()
		sig := s.runAll(t)
		o := outcome{end: slices.Max(sig.Elapsed), msgs: sig.Msgs, bytes: sig.Bytes}
		o.util, o.hottest = s.net.LinkUtilization(o.end)
		o.energy = s.net.Energy(noc.DefaultPowerParams(), o.end)
		if nranks == 1 {
			ref = o
			continue
		}
		if o != ref {
			t.Errorf("%d ranks: %+v, single rank %+v", nranks, o, ref)
		}
	}
}

// TestRestoreCommittedSnapshot: testdata/par2_charon.snap was written by
// `sst -system testdata/par2_charon.json -par 2 -snapshot-every 1us`, built
// while the partitioned network was still its own package (internal/dnoc),
// and SIGKILLed mid-run with packets in flight on both ranks and across
// them. This build must write the restored state back byte for byte, and
// finish with that build's uninterrupted summary, pinned here at full
// precision.
func TestRestoreCommittedSnapshot(t *testing.T) {
	sys, err := config.LoadSystemFile("testdata/par2_charon.json")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := sys.Topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sys.Net.ToNetConfig()
	if err != nil {
		t.Fatal(err)
	}
	profile := workload.CharonProfile
	profile.Steps = sys.Steps
	raw, err := os.ReadFile("testdata/par2_charon.snap")
	if err != nil {
		t.Fatal(err)
	}
	const end = 312835000
	s := buildSystem(t, topo, cfg, profile, 2)
	if err := s.runner.LoadFrom(bytes.NewReader(raw)); err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if now := s.runner.Now(); now == 0 || now >= end {
		t.Fatalf("snapshot taken at %v, want mid-run", now)
	}
	var resaved bytes.Buffer
	if err := s.runner.SaveTo(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), raw) {
		t.Error("restored state re-saves to different bytes")
	}
	want := sysSig{
		Elapsed: []sim.Time{end, end},
		Waits:   []sim.Time{8935000, 8935000},
		Msgs:    576, Bytes: 99840, Lat: 497777.77777777775,
	}
	if got := s.runAll(t); !reflect.DeepEqual(got, want) {
		t.Errorf("restored run diverged from the snapshotting build's\n got %+v\nwant %+v", got, want)
	}
}
