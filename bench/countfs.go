package main

import (
	"os"
	"strings"
	"sync/atomic"
	"time"

	"sst/internal/iofault"
)

// countFS is the storage seam every durable artifact of a benchmark run
// goes through (serve.Config.FS, the journal probe). It forwards to inner —
// an iofault.MemFS, so the state lives in process memory: the driver
// confines the benchmark to its checkout, and on the checkout's disk file
// creation alone doubles the cost of a cache-hit job and drifts from run to
// run (bench/README.md has the numbers). Two things are its own:
//
//   - File.Sync and SyncDir are counted but not forwarded. MemFS.SyncDir
//     walks every file, and nothing here crashes, so there is no durable
//     image to maintain. Storage is reported as counts, which repeat
//     exactly.
//   - Every mutating operation is counted, and in the traced run timed and
//     recorded as a span whose parent is the job whose directory it
//     touched.
type countFS struct {
	inner iofault.FS
	rec   *recorder // nil: count only

	ops, fsyncs, bytes, nanos atomic.Int64
}

// fsCounts is a snapshot of the counters.
type fsCounts struct{ ops, fsyncs, bytes, nanos int64 }

func (c *countFS) counts() fsCounts {
	return fsCounts{c.ops.Load(), c.fsyncs.Load(), c.bytes.Load(), c.nanos.Load()}
}

func (a fsCounts) add(b fsCounts) fsCounts {
	return fsCounts{a.ops + b.ops, a.fsyncs + b.fsyncs, a.bytes + b.bytes, a.nanos + b.nanos}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{a.ops - b.ops, a.fsyncs - b.fsyncs, a.bytes - b.bytes, a.nanos - b.nanos}
}

// jobOf extracts the job ID from <state>/jobs/<id> or a path under it.
func jobOf(path string) string {
	_, rest, ok := strings.Cut(path, "/jobs/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// op counts one mutating operation around fn and, when tracing, times it.
func (c *countFS) op(name, path string, fn func() error) error {
	c.ops.Add(1)
	if c.rec == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	c.nanos.Add(int64(d))
	c.rec.add(byGroup, name, jobOf(path), 0, t0, d)
	return err
}

func (c *countFS) Create(path string) (iofault.File, error) {
	var f iofault.File
	err := c.op("fs.create", path, func() (err error) { f, err = c.inner.Create(path); return })
	if err != nil {
		return nil, err
	}
	return &countFile{fs: c, f: f, path: path}, nil
}

func (c *countFS) OpenAppend(path string) (iofault.File, error) {
	var f iofault.File
	err := c.op("fs.open", path, func() (err error) { f, err = c.inner.OpenAppend(path); return })
	if err != nil {
		return nil, err
	}
	return &countFile{fs: c, f: f, path: path}, nil
}

func (c *countFS) ReadFile(path string) ([]byte, error)       { return c.inner.ReadFile(path) }
func (c *countFS) ReadDir(path string) ([]os.DirEntry, error) { return c.inner.ReadDir(path) }

func (c *countFS) Truncate(path string, size int64) error {
	return c.op("fs.truncate", path, func() error { return c.inner.Truncate(path, size) })
}

func (c *countFS) Rename(oldpath, newpath string) error {
	return c.op("fs.rename", newpath, func() error { return c.inner.Rename(oldpath, newpath) })
}

func (c *countFS) Remove(path string) error {
	return c.op("fs.remove", path, func() error { return c.inner.Remove(path) })
}

func (c *countFS) RemoveAll(path string) error {
	return c.op("fs.remove", path, func() error { return c.inner.RemoveAll(path) })
}

func (c *countFS) MkdirAll(path string) error {
	return c.op("fs.mkdir", path, func() error { return c.inner.MkdirAll(path) })
}

func (c *countFS) SyncDir(path string) error {
	c.fsyncs.Add(1)
	return c.op("fs.syncdir", path, func() error { return nil })
}

type countFile struct {
	fs   *countFS
	f    iofault.File
	path string
}

func (f *countFile) Write(p []byte) (n int, err error) {
	f.fs.bytes.Add(int64(len(p)))
	err = f.fs.op("fs.write", f.path, func() (err error) { n, err = f.f.Write(p); return })
	return n, err
}

func (f *countFile) Sync() error {
	f.fs.fsyncs.Add(1)
	return f.fs.op("fs.sync", f.path, func() error { return nil })
}

func (f *countFile) Close() error { return f.f.Close() }
