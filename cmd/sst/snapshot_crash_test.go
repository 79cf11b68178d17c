package main

// Crash consistency of the -snapshot-every surface: a sliced system run
// is crashed after every storage operation of every snapshot save, and
// whatever file survives must be a complete, loadable snapshot — the
// previous interval's or the new one, never a torn container. (That the
// restored run then reproduces the uninterrupted run bit-for-bit is
// asserted by internal/par's and internal/noc's snapshot tests; here we
// pin the storage layer's half of the contract.)

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sst/internal/iofault"
	"sst/internal/par"
	"sst/internal/sim"
)

func TestCrashPointsSnapshotSave(t *testing.T) {
	dir := t.TempDir()
	sysPath := filepath.Join(dir, "s.json")
	if err := os.WriteFile(sysPath, []byte(testSystem), 0o644); err != nil {
		t.Fatal(err)
	}
	restorable := 0
	n, err := iofault.Explore(
		func() (*iofault.MemFS, error) { return iofault.NewMemFS(41), nil },
		func(m *iofault.MemFS) error {
			return runSystem(sysPath, obsFlags{}, 1, par.SyncPairwise,
				snapCfg{every: 200 * sim.Microsecond, out: "run.snap", fs: m})
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
			if err := runSystem(sysPath, obsFlags{}, 1, par.SyncPairwise,
				snapCfg{restore: "run.snap", fs: cp.Image}); err != nil {
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
