package core

// Fault injection for the journal's durability promise: a write or fsync
// failure is a first-class sweep failure (wrapping ErrJournal), never a
// silently skipped record — a sweep whose crash-safety layer is broken
// must fail loudly. Faults are scheduled on an iofault.MemFS handed to a
// real study through SweepOptions.FS, the same seam the crash explorer
// uses.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"sst/internal/iofault"
	"sst/internal/leakcheck"
)

// A fresh journal's mutating operations: Create, SyncDir, then one
// (Write, Sync) pair per record.
const (
	journalFirstWriteOp = 3
	journalFirstSyncOp  = 4
)

// faultySweep runs a two-point journaled DSE sweep on a MemFS whose
// operation op fails with inject.
func faultySweep(op int, inject error, opts SweepOptions) (*DSEGrid, error) {
	m := iofault.NewMemFS(3)
	m.FailOp(op, inject)
	opts.Workers, opts.Journal, opts.FS = 1, "sweep.jsonl", m
	return MemTechWidthSweep([]string{"stream"}, []string{"ddr3-1333"}, []int{1, 2}, Small, opts)
}

func TestJournalWriteFailureFailsSweep(t *testing.T) {
	leakcheck.Check(t)
	// The simulation is fine; only the journal is broken.
	g, err := faultySweep(journalFirstWriteOp, iofault.ErrNoSpace, SweepOptions{})
	if err == nil {
		t.Fatal("sweep with failing journal writes reported success")
	}
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("sweep error does not wrap ErrJournal: %v", err)
	}
	// The log is fail-stop: the point whose write failed and every point
	// after it are unjournaled, and each says so.
	for i, p := range g.Points {
		if !errors.Is(p.Err, ErrJournal) {
			t.Errorf("point %d error does not wrap ErrJournal: %v", i, p.Err)
		}
	}
}

func TestJournalFsyncFailureFailsSweep(t *testing.T) {
	leakcheck.Check(t)
	_, err := faultySweep(journalFirstSyncOp, iofault.ErrSyncFailed, SweepOptions{})
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("fsync failure does not wrap ErrJournal: %v", err)
	}
}

// TestJournalFailureJoinsPointFailure: when the point failed AND its
// failure record could not be written, neither error may be lost.
func TestJournalFailureJoinsPointFailure(t *testing.T) {
	leakcheck.Check(t)
	g, err := faultySweep(journalFirstWriteOp, iofault.ErrNoSpace, SweepOptions{PointTimeout: time.Nanosecond})
	if err == nil {
		t.Fatal("sweep reported success")
	}
	perr := g.Points[0].Err
	if !errors.Is(perr, context.DeadlineExceeded) || !errors.Is(perr, ErrJournal) {
		t.Fatalf("point error must join the point failure and the journal failure, got: %v", perr)
	}
}

func TestOpenJournalUnwritablePath(t *testing.T) {
	if runtime.GOOS == "windows" || os.Getuid() == 0 {
		t.Skip("permission bits not enforced for this user")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })
	_, err := OpenJournalFS(iofault.Disk, filepath.Join(dir, "j.jsonl"), false)
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("unwritable journal path error does not wrap ErrJournal: %v", err)
	}
}

// TestJournalFailureDistinctFromPointFailure pins the exit-code contract
// at the core layer: a journal that cannot be opened is a sweep that
// could not run — ErrJournal without ErrPointFailed, which the cli layer
// maps to exit 1 — and a journal that fails mid-sweep still wraps
// ErrJournal (cli maps it ahead of ErrPointFailed) and is never mistaken
// for a point pathology.
func TestJournalFailureDistinctFromPointFailure(t *testing.T) {
	_, err := faultySweep(1, iofault.ErrNoSpace, SweepOptions{}) // the Create
	if !errors.Is(err, ErrJournal) || errors.Is(err, ErrPointFailed) {
		t.Fatalf("unopenable journal: want ErrJournal without ErrPointFailed, got %v", err)
	}
	_, err = faultySweep(journalFirstWriteOp, iofault.ErrNoSpace, SweepOptions{})
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("want ErrJournal, got %v", err)
	}
	if errors.Is(err, ErrPanicked) || errors.Is(err, ErrQuarantined) {
		t.Fatalf("journal failure misclassified as a point pathology: %v", err)
	}
}

// TestJournalFailedAppendDoesNotPoisonLaterRecords pins "a crash or I/O
// error loses at most the record being written". A short write (ENOSPC)
// leaves a newline-less prefix in the file; a record appended after it
// would fuse with the prefix into one corrupt line, and the next resume
// would drop that line and every fsync'd record behind it. So the points
// a resume restores must be exactly the points whose Record succeeded.
func TestJournalFailedAppendDoesNotPoisonLaterRecords(t *testing.T) {
	const n = 5
	m := iofault.NewMemFS(11)
	m.FailOp(journalFirstWriteOp+2, iofault.ErrNoSpace) // the second record's write
	var mu sync.Mutex
	points := func(ran map[int]bool) grid[int] {
		return grid[int]{
			n:    n,
			name: func(i int) string { return fmt.Sprintf("p%d", i) },
			run: func(_ context.Context, i int) (int, error) {
				mu.Lock()
				defer mu.Unlock()
				ran[i] = true
				return i, nil
			},
		}
	}
	_, errs, err := runGrid(SweepOptions{Workers: 1, Journal: "j.jsonl", FS: m}, points(map[int]bool{}))
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("sweep over a failing journal: want ErrJournal, got %v", err)
	}
	recorded := map[int]bool{}
	for i, e := range errs {
		if e == nil {
			recorded[i] = true
		}
	}
	if len(recorded) == 0 {
		t.Fatal("no point was recorded before the fault: the test exercises nothing")
	}
	reran := map[int]bool{}
	if _, _, err := runGrid(SweepOptions{Workers: 1, Journal: "j.jsonl", Resume: true, FS: m}, points(reran)); err != nil {
		t.Fatalf("resume after the fault: %v", err)
	}
	restored := map[int]bool{}
	for i := 0; i < n; i++ {
		if !reran[i] {
			restored[i] = true
		}
	}
	if !reflect.DeepEqual(restored, recorded) {
		t.Fatalf("resume restored points %v, but Record succeeded for %v", restored, recorded)
	}
}
