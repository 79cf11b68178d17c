package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sst/internal/iofault"
	"sst/internal/noc"
	"sst/internal/par"
	"sst/internal/sim"
	"sst/internal/workload"
)

// charonSystem builds an 8-node Charon run (two steps on a 2x2x2 torus)
// over nranks ranks.
func charonSystem(t *testing.T, nranks int, snapshots bool) *System {
	t.Helper()
	topo, err := noc.NewTorus3D(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.CharonProfile
	p.Steps = 2
	s, err := NewSystem(p.Name, topo, noc.DefaultConfig(), p.Scripts(8), nranks, snapshots)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// scriptedSystem runs the given scripts on a one-rank 2x1x1 torus.
func scriptedSystem(t *testing.T, scripts ...*workload.Script) *System {
	t.Helper()
	topo, err := noc.NewTorus3D(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem("scripted", topo, noc.DefaultConfig(), scripts, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Crash consistency of the sliced snapshot saves: the run is crashed after
// every storage operation of every save, and whatever file survives must
// be a complete, loadable snapshot — the previous interval's or the new
// one, never a torn container. (That the restored run then reproduces the
// uninterrupted run bit-for-bit is asserted by internal/par's and
// internal/noc's snapshot tests; here we pin the storage layer's half of
// the contract.)
func TestCrashPointsSnapshotSave(t *testing.T) {
	restorable := 0
	n, err := iofault.Explore(
		func() (*iofault.MemFS, error) { return iofault.NewMemFS(41), nil },
		func(m *iofault.MemFS) error {
			_, _, err := charonSystem(t, 1, true).Run(context.Background(),
				Snapshots{Every: 200 * sim.Microsecond, Out: "run.snap", FS: m})
			return err
		},
		func(cp iofault.CrashPoint) error {
			if cp.WorkloadErr != nil && !errors.Is(cp.WorkloadErr, iofault.ErrCrashed) {
				return fmt.Errorf("crashed sliced run error is untyped: %v", cp.WorkloadErr)
			}
			if _, err := cp.Image.ReadFile("run.snap"); err != nil {
				if os.IsNotExist(err) {
					return nil // crashed before the first snapshot was durable
				}
				return err
			}
			// A surviving snapshot must restore and run to completion.
			if _, _, err := charonSystem(t, 1, true).Run(context.Background(),
				Snapshots{Restore: "run.snap", FS: cp.Image}); err != nil {
				return fmt.Errorf("surviving snapshot failed to restore: %v\n%s", err, cp.Image.Dump())
			}
			restorable++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// Each save is create/write/sync/rename/syncdir; a multi-interval run
	// must expose at least two full save chains.
	if n < 10 {
		t.Fatalf("explored only %d storage ops; expected several snapshot saves", n)
	}
	if restorable == 0 {
		t.Fatal("no crash point left a restorable snapshot")
	}
}

// TestSystemRestoresCommittedSnapshot: internal/noc's
// testdata/par2_charon.snap, written by an earlier build's `sst -system
// -par 2 -snapshot-every 1us` on this Charon system and killed mid-run,
// restores into a two-rank System and finishes with that build's summary.
func TestSystemRestoresCommittedSnapshot(t *testing.T) {
	s := charonSystem(t, 2, true)
	elapsed, wait, err := s.Run(context.Background(),
		Snapshots{Restore: filepath.Join("..", "noc", "testdata", "par2_charon.snap")})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 312835000 || wait != 8935000 || s.Net.Messages() != 576 || s.Net.BytesDelivered() != 99840 ||
		s.Net.MessageLatencyMean() != 497777.77777777775 {
		t.Errorf("restored run: elapsed %d, wait %d, %d msgs, %d bytes, latency %v",
			elapsed, wait, s.Net.Messages(), s.Net.BytesDelivered(), s.Net.MessageLatencyMean())
	}
}

// TestSystemPanicIsRetried: a rank's handler panic inside a cell's run
// reaches the point executor as ErrPanicked, so the retry policy re-runs
// the cell; the second attempt succeeds.
func TestSystemPanicIsRetried(t *testing.T) {
	var attempts atomic.Int32
	cell := func(ctx context.Context, _ int) error {
		s0, s1 := &workload.Script{}, &workload.Script{}
		s0.Compute(sim.Microsecond)
		if attempts.Add(1) == 1 {
			s0.Send(99, 8) // panics in the NIC, inside the rank's window
		}
		_, err := scriptedSystem(t, s0, s1).runCell(ctx, "core: net study flaky")
		return err
	}
	sink := &attemptsSink{}
	errs, err := runFn(SweepOptions{Workers: 1, Metrics: sink, Retry: RetryPolicy{MaxAttempts: 2}}, 1, cell)
	if err != nil {
		t.Fatalf("cell failed despite a retry budget: %v", err)
	}
	if errs[0] != nil || sink.by[0] != 2 {
		t.Fatalf("cell: err %v after %d attempts, want success on the second", errs[0], sink.by[0])
	}

	s0 := &workload.Script{}
	s0.Compute(sim.Microsecond)
	s0.Send(99, 8)
	_, _, err = scriptedSystem(t, s0).Run(context.Background(), Snapshots{})
	if !errors.Is(err, ErrPanicked) || !errors.Is(err, par.ErrPanic) {
		t.Fatalf("panicking run: %v, want ErrPanicked wrapping par.ErrPanic", err)
	}
}

// TestSystemCellFailureTexts pins the failure texts a net cell journals.
func TestSystemCellFailureTexts(t *testing.T) {
	// Rank 0 waits for a message rank 1 never sends.
	s0 := &workload.Script{}
	s0.Recv(1)
	_, err := scriptedSystem(t, s0, &workload.Script{}).runCell(context.Background(), "core: net study dl")
	if err == nil || err.Error() != "core: net study dl deadlocked" {
		t.Errorf("deadlock: %v", err)
	}
	_, _, err = scriptedSystem(t, s0, &workload.Script{}).Run(context.Background(), Snapshots{})
	if !errors.Is(err, errDeadlocked) || err.Error() != "application deadlocked (rank group scripted.rank0)" {
		t.Errorf("system deadlock: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = charonSystem(t, 1, false).runCell(ctx, "core: net study charon")
	if !errors.Is(err, sim.ErrInterrupted) || !strings.HasPrefix(err.Error(), "core: net study charon interrupted at ") ||
		!strings.HasSuffix(err.Error(), ": sim: interrupted") {
		t.Errorf("cancelled: %v", err)
	}

	// An expired deadline either interrupts the run or lands after it
	// finished; both are the cell's deadline failures.
	ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = charonSystem(t, 1, false).runCell(ctx, "core: net study charon")
	switch {
	case errors.Is(err, sim.ErrInterrupted):
	case errors.Is(err, context.DeadlineExceeded):
		if err.Error() != "core: net study charon exceeded its deadline: context deadline exceeded" {
			t.Errorf("deadline: %v", err)
		}
	default:
		t.Errorf("expired deadline: %v", err)
	}
}

// TestWeakScalingPointTimeout: weak-scaling cells run under the point's
// context, so a PointTimeout far below a cell's run time fails every cell
// with context.DeadlineExceeded.
func TestWeakScalingPointTimeout(t *testing.T) {
	sink := &pointRecorder{}
	_, err := WeakScalingStudy([]int{4, 8}, 2, SweepOptions{Workers: 2, PointTimeout: time.Nanosecond, Metrics: sink})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1 ns PointTimeout: %v, want context.DeadlineExceeded", err)
	}
	if len(sink.reports) != 4 {
		t.Fatalf("%d cell reports, want 4", len(sink.reports))
	}
	for _, r := range sink.reports {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("cell %d: %v, want context.DeadlineExceeded", r.Index, r.Err)
		}
	}
}

// TestNewSystemShape: more scripts than nodes, and no ranks, are errors.
func TestNewSystemShape(t *testing.T) {
	topo, err := noc.NewTorus3D(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem("x", topo, noc.DefaultConfig(), make([]*workload.Script, 3), 1, false); err == nil {
		t.Error("3 scripts on 2 nodes accepted")
	}
	if _, err := NewSystem("x", topo, noc.DefaultConfig(), nil, 0, false); err == nil {
		t.Error("0 ranks accepted")
	}
}
