// Package iofault is the host-storage seam under every durable artifact
// the toolkit writes — sweep journals, cache warm-start files, engine
// snapshots and the sweep service's per-job state directory — plus a
// deterministic fault layer and a crash-point exploration harness over
// that seam (in memfs.go and explore.go).
//
// All persistence code writes through the FS interface instead of the os
// package. In production the seam is Disk, a thin veneer over os with one
// addition the os package makes easy to forget: SyncDir, the parent-
// directory fsync without which a rename (or a freshly created file) is
// not guaranteed to survive a crash. In tests the seam is a MemFS, an
// in-memory filesystem that models exactly which bytes and which
// directory entries are durable at every instant, counts every mutating
// operation, and can inject short writes, ENOSPC, fsync errors and
// "crash after operation N" — turning "does this code survive a crash?"
// from a hand-picked scenario into an exhaustive enumeration.
//
// The durability rules the model (and therefore the toolkit) assumes:
//
//   - Bytes reach the disk only at File.Sync. A crash keeps some prefix
//     of each file's written bytes that is at least the fsync'd prefix —
//     anything past the last Sync may vanish.
//   - A created, renamed or removed directory entry reaches the disk
//     only at SyncDir on its parent. A crash may revert any entry change
//     made since the parent's last SyncDir.
//   - Rename is atomic: a crash yields the old binding or the new one,
//     never a mix, never a torn file under the destination name.
//
// WriteFileAtomic is the one blessed way to replace a file under those
// rules: temp file, write, fsync, close, rename, parent-dir fsync.
package iofault

import (
	"io"
	"os"
	"path/filepath"
)

// File is the open-file surface persistence code needs: append/stream
// writes, durability, release. Reads go through FS.ReadFile — every
// artifact in this codebase is small enough to load whole, and keeping
// reads out of File keeps the fault model's write accounting exact.
type File interface {
	io.Writer
	// Sync flushes written bytes to durable storage. After a successful
	// Sync, a crash cannot lose anything written so far (though the file's
	// directory entry still needs its parent's SyncDir to be findable).
	Sync() error
	Close() error
}

// FS is the host-storage seam. Implementations: Disk (the real
// filesystem) and *MemFS (the deterministic in-memory fault model).
type FS interface {
	// Create opens path for writing, truncating any existing file —
	// os.Create semantics.
	Create(path string) (File, error)
	// OpenAppend opens path for appending, creating it if absent —
	// the journal/warm-start tier open mode.
	OpenAppend(path string) (File, error)
	// ReadFile returns the whole file, os.ReadFile semantics (a missing
	// file satisfies errors.Is(err, fs.ErrNotExist)).
	ReadFile(path string) ([]byte, error)
	// ReadDir lists the directory, os.ReadDir semantics.
	ReadDir(path string) ([]os.DirEntry, error)
	// Truncate cuts the named file to size — the torn-tail repair op.
	Truncate(path string, size int64) error
	// Rename atomically rebinds newpath to oldpath's file. Durable only
	// after SyncDir on the parent.
	Rename(oldpath, newpath string) error
	// Remove unlinks a file (not a directory).
	Remove(path string) error
	// RemoveAll removes path and everything under it.
	RemoveAll(path string) error
	// MkdirAll creates the directory and any missing parents.
	MkdirAll(path string) error
	// SyncDir fsyncs a directory, making its current entries — creations,
	// renames, removals — durable.
	SyncDir(path string) error
}

// Disk is the production FS: the os package plus real directory fsyncs.
var Disk FS = diskFS{}

type diskFS struct{}

func (diskFS) Create(path string) (File, error) { return os.Create(path) }

func (diskFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
}

func (diskFS) ReadFile(path string) ([]byte, error)       { return os.ReadFile(path) }
func (diskFS) ReadDir(path string) ([]os.DirEntry, error) { return os.ReadDir(path) }
func (diskFS) Truncate(path string, size int64) error     { return os.Truncate(path, size) }
func (diskFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (diskFS) Remove(path string) error                   { return os.Remove(path) }
func (diskFS) RemoveAll(path string) error                { return os.RemoveAll(path) }
func (diskFS) MkdirAll(path string) error                 { return os.MkdirAll(path, 0o755) }

// SyncDir opens the directory and fsyncs it. Platforms whose directory
// handles reject fsync (some network filesystems) report the error; the
// caller decides whether durability is load-bearing there.
func (diskFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic durably replaces path with data: temp file in the same
// directory, write, fsync, close, rename over path, fsync the parent
// directory. A crash at any instant leaves either the old file or the
// complete new one — never a torn file, and (after the final SyncDir)
// never a rename that quietly evaporates. This is the shared writer the
// sweep service's spec/status/result markers and cmd/sst's snapshots
// fold into; the parent-directory fsync is the step their previous
// hand-rolled copies skipped.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	return WriteFileAtomicFunc(fsys, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteFileAtomicFunc is WriteFileAtomic for streamed payloads (snapshot
// codecs write directly): write is handed the temp file's writer.
func WriteFileAtomicFunc(fsys FS, path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}
