package iofault

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestMemFSDurabilityModel pins the model's rules: un-fsync'd bytes are
// volatile, fsync'd bytes survive, entries need a parent-dir fsync, and
// a rename without one may revert.
func TestMemFSDurabilityModel(t *testing.T) {
	m := NewMemFS(1)
	if err := m.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	f, err := m.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("+volatile")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Entry not dir-fsync'd: worst case loses the file entirely.
	img := m.CrashImage(DropUnsynced)
	if _, err := img.ReadFile("d/a"); !os.IsNotExist(err) {
		t.Fatalf("un-dir-fsync'd entry survived worst-case crash: %v", err)
	}
	// Lucky case keeps everything.
	if got, _ := m.CrashImage(RetainAll).ReadFile("d/a"); string(got) != "durable+volatile" {
		t.Fatalf("retain-all content = %q", got)
	}

	// After SyncDir the entry survives, with only the fsync'd prefix.
	if err := m.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	got, err := m.CrashImage(DropUnsynced).ReadFile("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable" {
		t.Fatalf("worst-case content = %q, want the fsync'd prefix only", got)
	}
	// Torn-tail variant keeps the entry and part of the volatile tail.
	torn, err := m.CrashImage(TornTail).ReadFile("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(torn) < len("durable") || len(torn) > len("durable+volatile") {
		t.Fatalf("torn-tail content %q outside [synced, full]", torn)
	}
}

// TestMemFSRenameDurability: rename is atomic but volatile until the
// parent's SyncDir — the exact bug class the shared atomic writer fixes.
func TestMemFSRenameDurability(t *testing.T) {
	m := NewMemFS(1)
	write := func(p, s string) {
		t.Helper()
		f, err := m.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(f, s)
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	write("target", "old")
	if err := m.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	write("target.tmp", "new")
	if err := m.Rename("target.tmp", "target"); err != nil {
		t.Fatal(err)
	}

	// No dir fsync: worst case shows the old binding under the target name.
	img := m.CrashImage(DropUnsynced)
	if got, _ := img.ReadFile("target"); string(got) != "old" {
		t.Fatalf("un-synced rename already durable: target = %q", got)
	}
	if err := m.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	img = m.CrashImage(DropUnsynced)
	if got, _ := img.ReadFile("target"); string(got) != "new" {
		t.Fatalf("dir-fsync'd rename lost: target = %q", got)
	}
	if _, err := img.ReadFile("target.tmp"); !os.IsNotExist(err) {
		t.Fatalf("renamed-away temp file still present: %v", err)
	}
}

// TestMemFSScheduledFaults: FailOp injects a short write + ENOSPC at an
// exact op, an fsync error at another, and CrashAfter kills everything
// past its point.
func TestMemFSScheduledFaults(t *testing.T) {
	m := NewMemFS(7)
	m.FailOp(2, ErrNoSpace) // op 2: the write below
	m.FailOp(4, ErrSyncFailed)

	f, _ := m.Create("a") // op 1
	payload := []byte("0123456789")
	n, err := f.Write(payload) // op 2: short write + ENOSPC
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("scheduled write error = %v", err)
	}
	if n >= len(payload) {
		t.Fatalf("failing write landed %d of %d bytes — not short", n, len(payload))
	}
	raw, _ := m.ReadFile("a")
	if len(raw) != n || !bytes.Equal(raw, payload[:n]) {
		t.Fatalf("file holds %q after short write of %d", raw, n)
	}
	if _, err := f.Write(payload); err != nil { // op 3 fine
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrSyncFailed) { // op 4
		t.Fatalf("scheduled sync error = %v", err)
	}

	m.CrashAfter(m.Ops())
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write = %v", err)
	}
	if err := m.SyncDir("."); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash syncdir = %v", err)
	}
	if _, err := m.ReadFile("a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read = %v", err)
	}
}

// TestMemFSShortWritesDeterministic: the same seed tears failing writes
// at the same offsets.
func TestMemFSShortWritesDeterministic(t *testing.T) {
	run := func(seed uint64) []byte {
		m := NewMemFS(seed)
		m.FailOp(2, ErrNoSpace)
		f, _ := m.Create("a")
		f.Write(bytes.Repeat([]byte("x"), 100))
		raw, _ := m.ReadFile("a")
		return raw
	}
	if a, b := run(3), run(3); !bytes.Equal(a, b) {
		t.Fatalf("same seed, different tears: %d vs %d bytes", len(a), len(b))
	}
}

// TestMemFSReadDir mirrors the os.ReadDir shape the service's recovery
// scan relies on: directories flagged as such, names sorted.
func TestMemFSReadDir(t *testing.T) {
	m := NewMemFS(1)
	m.MkdirAll("jobs/j2")
	m.MkdirAll("jobs/j1")
	f, _ := m.Create("jobs/stray")
	f.Close()
	ents, err := m.ReadDir("jobs")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, fmt.Sprintf("%s:%v", e.Name(), e.IsDir()))
	}
	want := []string{"j1:true", "j2:true", "stray:false"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ReadDir = %v, want %v", got, want)
	}
}

// TestDiskRoundTrip smoke-tests the production FS, including SyncDir on
// a real directory and the atomic replace helper.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "x.json")
	if err := WriteFileAtomic(Disk, p, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(Disk, p, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	raw, err := Disk.ReadFile(p)
	if err != nil || string(raw) != "v2" {
		t.Fatalf("read back %q, %v", raw, err)
	}
	if _, err := os.Stat(p + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	f, err := Disk.OpenAppend(p)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "+tail")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := Disk.Truncate(p, 2); err != nil {
		t.Fatal(err)
	}
	raw, _ = Disk.ReadFile(p)
	if string(raw) != "v2" {
		t.Fatalf("after append+truncate: %q", raw)
	}
	ents, err := Disk.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
}

// TestCrashPointsAtomicWrite is the generic surface every marker file
// (spec.json, status.json, result.csv, snapshots) rides on: replacing a
// file via WriteFileAtomic must, at every crash point and retention,
// leave either the complete old content or the complete new content
// under the target name — never a torn file, and once v1 was durably in
// place, never nothing.
func TestCrashPointsAtomicWrite(t *testing.T) {
	v1 := []byte(`{"version":1,"pad":"xxxxxxxxxxxxxxxx"}`)
	v2 := []byte(`{"version":2,"pad":"yyyyyyyyyyyyyyyy"}`)
	setup := func() (*MemFS, error) {
		m := NewMemFS(11)
		if err := m.MkdirAll("state"); err != nil {
			return nil, err
		}
		if err := m.SyncDir("."); err != nil {
			return nil, err
		}
		// v1 is durably in place before the workload starts: the atomic
		// writer fsyncs the file and the parent directory.
		if err := WriteFileAtomic(m, "state/marker.json", v1); err != nil {
			return nil, err
		}
		return m, nil
	}
	n, err := Explore(setup,
		func(m *MemFS) error { return WriteFileAtomic(m, "state/marker.json", v2) },
		func(cp CrashPoint) error {
			if cp.WorkloadErr != nil && !errors.Is(cp.WorkloadErr, ErrCrashed) {
				return fmt.Errorf("crashed workload error is untyped: %v", cp.WorkloadErr)
			}
			got, err := cp.Image.ReadFile("state/marker.json")
			if err != nil {
				return fmt.Errorf("marker lost: %v\n%s", err, cp.Image.Dump())
			}
			if !bytes.Equal(got, v1) && !bytes.Equal(got, v2) {
				return fmt.Errorf("marker torn: %q", got)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// create, write, sync, rename, syncdir (+ remove on no path here) = 5.
	if n < 5 {
		t.Fatalf("explored %d ops, expected the full create/write/sync/rename/syncdir chain", n)
	}
}

// TestExploreRejectsEmptyWorkload: a workload that never touches the
// filesystem is a harness bug, not a passing test.
func TestExploreRejectsEmptyWorkload(t *testing.T) {
	_, err := Explore(
		func() (*MemFS, error) { return NewMemFS(1), nil },
		func(*MemFS) error { return nil },
		func(CrashPoint) error { return nil })
	if err == nil {
		t.Fatal("empty workload explored successfully")
	}
}
