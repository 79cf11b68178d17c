package dnoc

// End-to-end crash safety for the distributed system stack: skeleton apps
// over the distributed fabric (the cmd/sst -system -par composition) are
// killed at a barrier, restored into a freshly built twin, and continued —
// and elapsed times, wait times, message counts and latency statistics must
// be bit-identical to the uninterrupted run.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"sst/internal/noc"
	"sst/internal/par"
	"sst/internal/sim"
	"sst/internal/workload"
)

var snapProfile = workload.CommProfile{
	Name: "mini", Steps: 3, ComputePerStep: 2 * sim.Microsecond,
	HaloBytes: 8 << 10, Neighbors: 1, AllReduces: 1,
}

// sysSig is one run's full observable outcome.
type sysSig struct {
	Elapsed []sim.Time
	Waits   []sim.Time
	Msgs    uint64
	Bytes   uint64
	Lat     float64
}

// buildSystem mirrors cmd/sst's runSystemPar: a snapshot-enabled runner, the
// distributed fabric, and one app per rank group.
func buildSystem(t *testing.T, nranks int, mode par.SyncMode) (*par.Runner, *Network, []*workload.App) {
	t.Helper()
	runner, err := par.NewRunner(nranks)
	if err != nil {
		t.Fatal(err)
	}
	runner.SetSyncMode(mode)
	runner.EnableSnapshots()
	topo, err := noc.NewTorus3D(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(runner, topo, noc.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	scripts := snapProfile.Scripts(topo.NumNodes())
	ports := make([][]workload.MessagePort, nranks)
	local := make([][]*workload.Script, nranks)
	for i, s := range scripts {
		home := d.RankOfNode(i)
		ports[home] = append(ports[home], d.NIC(i))
		local[home] = append(local[home], s)
	}
	var apps []*workload.App
	for p := 0; p < nranks; p++ {
		if len(local[p]) == 0 {
			continue
		}
		app, err := workload.NewAppOnPorts(runner.Rank(p).Engine(),
			fmt.Sprintf("%s.rank%d", snapProfile.Name, p), ports[p], local[p])
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	return runner, d, apps
}

func systemSig(t *testing.T, d *Network, apps []*workload.App) sysSig {
	t.Helper()
	sig := sysSig{Msgs: d.Messages(), Bytes: d.BytesDelivered(), Lat: d.MeanLatencyPs()}
	for _, app := range apps {
		if !app.Done() {
			t.Fatalf("app %s did not complete", app.Name())
		}
		sig.Elapsed = append(sig.Elapsed, app.Elapsed())
		sig.Waits = append(sig.Waits, app.MaxWaitTime())
	}
	return sig
}

// runSystemRef runs the system uninterrupted and returns its signature plus
// the latest app completion time (for deriving mid-run barriers).
func runSystemRef(t *testing.T, nranks int, mode par.SyncMode) (sysSig, sim.Time) {
	t.Helper()
	runner, d, apps := buildSystem(t, nranks, mode)
	for _, app := range apps {
		app.Start(nil)
	}
	if _, err := runner.RunAll(); err != nil {
		t.Fatal(err)
	}
	var end sim.Time
	for _, app := range apps {
		if e := app.Elapsed(); e > end {
			end = e
		}
	}
	return systemSig(t, d, apps), end
}

// runSystemKillRestore cuts the run at the barrier, snapshots, rebuilds the
// whole stack, restores (without Starting the apps), and finishes.
func runSystemKillRestore(t *testing.T, nranks int, mode par.SyncMode, barrier sim.Time) sysSig {
	t.Helper()
	r1, _, apps1 := buildSystem(t, nranks, mode)
	for _, app := range apps1 {
		app.Start(nil)
	}
	if _, err := r1.Run(barrier); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := r1.SaveTo(&file); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	r2, d2, apps2 := buildSystem(t, nranks, mode)
	if err := r2.LoadFrom(bytes.NewReader(file.Bytes())); err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if _, err := r2.RunAll(); err != nil {
		t.Fatal(err)
	}
	return systemSig(t, d2, apps2)
}

// TestSystemKillRestore is the CLI composition's crash-safety property at
// every rank count under every sync mode, with barriers in the early and
// late thirds of the run.
func TestSystemKillRestore(t *testing.T) {
	rankCounts := []int{1, 2, 4, 8}
	if testing.Short() {
		rankCounts = []int{1, 4}
	}
	for _, nranks := range rankCounts {
		for _, name := range par.SyncModeNames() {
			mode, err := par.ParseSyncMode(name)
			if err != nil {
				t.Fatal(err)
			}
			ref, end := runSystemRef(t, nranks, mode)
			if ref.Msgs == 0 || end == 0 {
				t.Fatal("reference system run did nothing; test is vacuous")
			}
			for _, barrier := range []sim.Time{end / 3, 2 * end / 3} {
				got := runSystemKillRestore(t, nranks, mode, barrier)
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("nranks=%d sync=%v barrier=%v: restored run diverged\n got %+v\nwant %+v",
						nranks, mode, barrier, got, ref)
				}
			}
		}
	}
}

// TestSnapshotBuilderMatchesPlain proves the snapshot-enabled fabric does
// not perturb results: the event-set scheduling path must deliver at the
// same times as both the plain distributed and the sequential noc runs.
func TestSnapshotBuilderMatchesPlain(t *testing.T) {
	topo, err := noc.NewTorus3D(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := noc.DefaultConfig()
	sends := plan(topo.NumNodes(), 3)
	seq := runSequential(t, topo, cfg, sends)
	runner, err := par.NewRunner(4)
	if err != nil {
		t.Fatal(err)
	}
	runner.EnableSnapshots()
	d, err := New(runner, topo, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]sim.Time, len(sends))
	for i := 0; i < topo.NumNodes(); i++ {
		eng := runner.Rank(d.RankOfNode(i)).Engine()
		d.NIC(i).SetReceiver(func(src, size int, payload any) {
			out[payload.(int)] = eng.Now()
		})
	}
	for _, s := range sends {
		s := s
		eng := runner.Rank(d.RankOfNode(s.src)).Engine()
		eng.ScheduleAt(s.at, sim.PrioLink, func(any) {
			d.NIC(s.src).SendTimed(s.dst, s.size, s.id)
		}, nil)
	}
	if _, err := runner.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if out[i] != seq[i] {
			t.Fatalf("message %d delivered at %v with snapshots on vs %v sequential", i, out[i], seq[i])
		}
	}
}
