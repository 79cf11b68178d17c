package iofault

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
)

// AppendLog is the one on-disk append-log algorithm the toolkit uses: a
// file of newline-terminated records, each made durable (write, then
// fsync) before Append returns, whose parent directory entry is fsync'd
// once at open. A process killed at any instant therefore loses at most
// the record being appended, and that loss shows up on the next open as a
// torn final line, which OpenAppendLog cuts off. The sweep journal and
// the result cache's warm-start tier are record formats over this type;
// what a failure means (fail the sweep, or degrade to memory) stays with
// them.
//
// An AppendLog is not safe for concurrent use; callers serialize access.
type AppendLog struct {
	f   File
	buf []byte
	err error // first Append failure: the log is fail-stop from then on
}

// OpenAppendLog opens the log at path on fsys. With fresh set the file is
// created empty, discarding previous content. Otherwise every complete
// line already in the file is offered to accept in order; the first line
// accept rejects, and everything after it, is a torn or corrupt tail and
// is truncated away, so the file ends on the last accepted record (blank
// lines are kept and skipped). A missing file is an empty log.
//
// The operation order is part of the contract the crash explorer checks:
// fresh is Create, SyncDir; otherwise ReadFile, Truncate when there is a
// tail to drop, OpenAppend, SyncDir.
func OpenAppendLog(fsys FS, path string, fresh bool, accept func(line []byte) bool) (*AppendLog, error) {
	var f File
	var err error
	if fresh {
		f, err = fsys.Create(path)
	} else {
		f, err = openScanned(fsys, path, accept)
	}
	if err != nil {
		return nil, err
	}
	// The records are only findable after a crash if the file's directory
	// entry is durable too; one parent fsync covers the file's lifetime.
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("parent dir fsync: %w", err)
	}
	return &AppendLog{f: f}, nil
}

// openScanned loads the surviving records, drops the tail after them and
// reopens the file for append.
func openScanned(fsys FS, path string, accept func(line []byte) bool) (File, error) {
	raw, err := fsys.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	// valid is the offset just past the last accepted record.
	valid := 0
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // no terminator: torn final line
		}
		line := raw[off : off+nl]
		off += nl + 1
		if len(bytes.TrimSpace(line)) > 0 && !accept(line) {
			break // torn or corrupt: drop it and everything after
		}
		valid = off
	}
	if valid < len(raw) {
		if err := fsys.Truncate(path, int64(valid)); err != nil {
			return nil, fmt.Errorf("truncating torn tail: %w", err)
		}
	}
	return fsys.OpenAppend(path)
}

// Append writes rec plus a newline as one write and fsyncs it; rec must
// not contain a newline. A failed write can leave a newline-less prefix
// of the record in the file, and a record appended after it would fuse
// with that prefix into one corrupt line that the next open drops along
// with every durable record behind it. So the first failure is final:
// every later Append returns the same error without touching the file.
func (l *AppendLog) Append(rec []byte) error {
	if l.err != nil {
		return l.err
	}
	l.buf = append(append(l.buf[:0], rec...), '\n')
	if _, err := l.f.Write(l.buf); err != nil {
		l.err = err
	} else if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("fsync: %w", err)
	}
	return l.err
}

// Close releases the file. Safe to call repeatedly.
func (l *AppendLog) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
