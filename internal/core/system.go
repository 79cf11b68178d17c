package core

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"sst/internal/iofault"
	"sst/internal/noc"
	"sst/internal/par"
	"sst/internal/sim"
	"sst/internal/workload"
)

// System is the one network-plus-application run: skeleton-app rank
// scripts over the analytic network, partitioned across the ranks of a
// par.Runner. `sst -system` runs it at any rank count; the Fig. 9 and
// weak-scaling cells run it at one rank, which the runner executes as a
// plain sequential loop.
type System struct {
	// Runner owns the rank engines; Net is the network partitioned over
	// them. Both are exposed for tracers, collectors and the summary.
	Runner *par.Runner
	Net    *noc.Network
	apps   []*workload.App
}

// errDeadlocked marks a system run whose events ran out while an
// application rank was still blocked.
var errDeadlocked = errors.New("application deadlocked")

// NewSystem builds the network over nranks parallel ranks and wires
// scripts[i] to node i. The scripts are grouped by the
// rank that owns their node into one workload.App per rank, named
// "<name>.rank<p>" — the name snapshots record it under. Script send/recv
// peers are global node ids, so the grouping is invisible to the protocol.
// snapshots enables checkpointing, which Snapshots.Every and Restore need.
func NewSystem(name string, topo noc.Topology, netCfg noc.NetConfig, scripts []*workload.Script, nranks int, snapshots bool) (*System, error) {
	if len(scripts) > topo.NumNodes() {
		return nil, fmt.Errorf("core: %d ranks for %d nodes", len(scripts), topo.NumNodes())
	}
	runner, err := par.NewRunner(nranks)
	if err != nil {
		return nil, err
	}
	if snapshots {
		// Must precede model construction: components register their
		// checkpoint state as they are built.
		runner.EnableSnapshots()
	}
	net, err := noc.NewPartitionedNetwork(runner, topo, netCfg, nil)
	if err != nil {
		return nil, err
	}
	ports := make([][]workload.MessagePort, nranks)
	local := make([][]*workload.Script, nranks)
	for i, s := range scripts {
		home := net.RankOfNode(i)
		ports[home] = append(ports[home], net.NIC(i))
		local[home] = append(local[home], s)
	}
	s := &System{Runner: runner, Net: net}
	for p := range nranks {
		if len(local[p]) == 0 {
			continue
		}
		app, err := workload.NewAppOnPorts(runner.Rank(p).Engine(), fmt.Sprintf("%s.rank%d", name, p), ports[p], local[p])
		if err != nil {
			return nil, err
		}
		s.apps = append(s.apps, app)
	}
	return s, nil
}

// Snapshots configures a System run's crash safety. The zero value starts
// the applications and writes nothing.
type Snapshots struct {
	// Every, when > 0, slices the run into intervals of this much
	// simulated time and replaces Out with a consistent snapshot at each
	// barrier.
	Every sim.Time
	Out   string
	// Restore, when set, resumes the run from this snapshot file instead
	// of starting the applications.
	Restore string
	// FS is the host-storage seam for both; nil means the real disk. The
	// crash-point harness substitutes an iofault.MemFS.
	FS iofault.FS
}

// Run runs the system to completion and returns the applications' elapsed
// simulated time and largest per-rank receive wait. An expired ctx
// interrupts the run with an error wrapping sim.ErrInterrupted, unless
// every application had already finished. A rank's event-handler panic
// becomes an error wrapping ErrPanicked, so sweep retry treats it as
// transient; an application left blocked is a deadlock error naming its
// rank group. With a PointArena in ctx, rank 0's engine borrows its event
// storage for the run.
func (s *System) Run(ctx context.Context, snap Snapshots) (elapsed, maxWait sim.Time, err error) {
	if a := arenaFrom(ctx); a != nil {
		eng := s.Runner.Rank(0).Engine()
		a.Events.Lend(eng)
		defer a.Events.Harvest(eng)
	}
	fsys := snap.FS
	if fsys == nil {
		fsys = iofault.Disk
	}
	if snap.Restore != "" {
		raw, err := fsys.ReadFile(snap.Restore)
		if err != nil {
			return 0, 0, err
		}
		if err := s.Runner.LoadFrom(bytes.NewReader(raw)); err != nil {
			return 0, 0, fmt.Errorf("restoring %s: %w", snap.Restore, err)
		}
		// Restored apps resume mid-script; Start would re-launch them.
	} else {
		for _, app := range s.apps {
			app.Start(nil)
		}
	}
	stop := context.AfterFunc(ctx, s.Runner.Interrupt)
	if ctx.Err() != nil {
		s.Runner.Interrupt() // a run whose context is already done never starts
	}
	if snap.Every > 0 {
		err = s.runSliced(fsys, snap)
	} else {
		_, err = s.Runner.RunAll()
	}
	stop()
	done := true
	for _, app := range s.apps {
		done = done && app.Done()
	}
	switch {
	case errors.Is(err, par.ErrPanic):
		return 0, 0, fmt.Errorf("core: %w: %w", ErrPanicked, err)
	case err != nil && !(done && errors.Is(err, sim.ErrInterrupted)):
		return 0, 0, err
	}
	for _, app := range s.apps {
		if !app.Done() {
			return 0, 0, fmt.Errorf("%w (rank group %s)", errDeadlocked, app.Name())
		}
		elapsed = max(elapsed, app.Elapsed())
		maxWait = max(maxWait, app.MaxWaitTime())
	}
	return elapsed, maxWait, nil
}

// runSliced advances the run one snapshot interval at a time, writing a
// consistent snapshot at each barrier. The write is atomic and durable
// (temp file, fsync, rename, parent-dir fsync — the shared iofault
// discipline), so a kill at any instant leaves either the previous
// complete snapshot or the new one, never a torn file. The encoder's many
// small writes go through one buffer, so the storage sees a few large
// writes and a save's crash-point count does not grow with model size.
func (s *System) runSliced(fsys iofault.FS, snap Snapshots) error {
	for s.Runner.NextEventTime() != sim.TimeInfinity {
		if _, err := s.Runner.Run(s.Runner.Now() + snap.Every); err != nil {
			return err
		}
		err := iofault.WriteFileAtomicFunc(fsys, snap.Out, func(w io.Writer) error {
			bw := bufio.NewWriterSize(w, 1<<20)
			if err := s.Runner.SaveTo(bw); err != nil {
				return err
			}
			return bw.Flush()
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// runCell runs the system as one sweep cell under the cell's context,
// naming the cell as what in its failures. Journals record those texts,
// so their wording is on-disk format.
func (s *System) runCell(ctx context.Context, what string) (sim.Time, error) {
	elapsed, _, err := s.Run(ctx, Snapshots{})
	switch {
	case errors.Is(err, errDeadlocked):
		return 0, fmt.Errorf("%s deadlocked", what)
	case errors.Is(err, sim.ErrInterrupted):
		return 0, fmt.Errorf("%s interrupted at %v: %w", what, s.Runner.Now(), sim.ErrInterrupted)
	case err != nil:
		return 0, err
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		// Same race as RunMachineCtx: a cell that finishes between its
		// deadline expiring and the interrupt landing still counts as
		// timed out; completion under plain cancellation stays a success
		// (drain).
		return 0, fmt.Errorf("%s exceeded its deadline: %w", what, context.DeadlineExceeded)
	}
	return elapsed, nil
}
