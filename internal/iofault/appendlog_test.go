package iofault_test

// One harness for the one line scanner. Every durable JSONL file the
// toolkit reads back — the sweep journal and the result cache's warm-start
// tier — is an iofault.AppendLog under a record format, so the properties
// of opening arbitrary bytes are stated once and checked through the raw
// log and through both real formats (core.OpenJournalFS and cache.New with
// core.ResultCodec), whose accept callbacks are the production decoders.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"testing"

	"sst/internal/cache"
	"sst/internal/core"
	"sst/internal/iofault"
	"sst/internal/sim"
)

const logPath = "log.jsonl"

// openLog is one record format's view of an open log: append a fresh valid
// record identified by n, ask whether record n was loaded, close.
type openLog struct {
	append func(n int) error
	has    func(n int) bool
	close  func() error
}

// rawAccept is the raw log's record format: any JSON object.
func rawAccept(line []byte) bool {
	return json.Valid(line) && bytes.HasPrefix(bytes.TrimSpace(line), []byte("{"))
}

var logFormats = []struct {
	name string
	open func(m *iofault.MemFS) (openLog, error)
}{
	{"raw", func(m *iofault.MemFS) (openLog, error) {
		loaded := map[string]bool{}
		rec := func(n int) string { return fmt.Sprintf(`{"n":%d}`, n) }
		l, err := iofault.OpenAppendLog(m, logPath, false, func(line []byte) bool {
			loaded[string(line)] = true
			return rawAccept(line)
		})
		if err != nil {
			return openLog{}, err
		}
		return openLog{
			append: func(n int) error { return l.Append([]byte(rec(n))) },
			has:    func(n int) bool { return loaded[rec(n)] },
			close:  l.Close,
		}, nil
	}},
	{"journal", func(m *iofault.MemFS) (openLog, error) {
		key := func(n int) string { return fmt.Sprintf("fuzz/%d", n) }
		j, err := core.OpenJournalFS(m, logPath, true)
		if err != nil {
			return openLog{}, err
		}
		return openLog{
			append: func(n int) error { return j.Record(key(n), json.RawMessage("1"), nil, nil) },
			has:    func(n int) bool { _, ok := j.Completed(key(n)); return ok },
			close:  j.Close,
		}, nil
	}},
	{"cache", func(m *iofault.MemFS) (openLog, error) {
		key := func(n int) string { return fmt.Sprintf("fuzz/%d", n) }
		c, err := cache.New(cache.Options{Capacity: 4096, Path: logPath, Codec: core.ResultCodec(), FS: m})
		if err != nil {
			return openLog{}, err
		}
		return openLog{
			append: func(n int) error { return c.Store(key(n), sim.Time(n), []byte(strconv.Itoa(n))) },
			has:    func(n int) bool { _, ok := c.Get(key(n)); return ok },
			close:  c.Close,
		}, nil
	}},
}

// reopen opens the log over content in the given format, runs use, closes
// it and returns the file's bytes afterwards.
func reopen(t *testing.T, content []byte, open func(*iofault.MemFS) (openLog, error), use func(openLog)) []byte {
	t.Helper()
	m := iofault.NewMemFS(1)
	f, err := m.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(content); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l, err := open(m)
	if err != nil {
		t.Fatalf("open over %q: %v", content, err)
	}
	if use != nil {
		use(l)
	}
	if err := l.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	after, err := m.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	return after
}

// leadingRun is the reference scanner: the prefix of data made of
// complete lines up to (excluding) the first non-blank line accept
// rejects.
func leadingRun(data []byte, accept func([]byte) bool) []byte {
	kept := 0
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if !bytes.HasSuffix(line, []byte("\n")) {
			break
		}
		if rec := bytes.TrimSuffix(line, []byte("\n")); len(bytes.TrimSpace(rec)) > 0 && !accept(rec) {
			break
		}
		kept += len(line)
	}
	return data[:kept]
}

func checkAppendLogOpen(t *testing.T, data []byte) {
	for _, format := range logFormats {
		// Opening arbitrary bytes never fails or panics, and what survives
		// is a prefix of the input that ends on a record boundary.
		kept := reopen(t, data, format.open, nil)
		if !bytes.HasPrefix(data, kept) || (len(kept) > 0 && kept[len(kept)-1] != '\n') {
			t.Fatalf("%s: open kept %q of %q: not a line-aligned prefix", format.name, kept, data)
		}
		if format.name == "raw" {
			if want := leadingRun(data, rawAccept); !bytes.Equal(kept, want) {
				t.Fatalf("raw: open kept %q of %q, reference scanner keeps %q", kept, data, want)
			}
		}
		// A second open is a no-op — so every kept record is accepted…
		if again := reopen(t, kept, format.open, nil); !bytes.Equal(again, kept) {
			t.Fatalf("%s: second open changed the file from %q to %q", format.name, kept, again)
		}
		// …and the first dropped line, if it was complete, is rejected on
		// its own too — so the kept prefix is the whole leading run.
		if next, _, complete := bytes.Cut(data[len(kept):], []byte("\n")); complete {
			with := append(append(append([]byte{}, kept...), next...), '\n')
			if got := reopen(t, with, format.open, nil); !bytes.Equal(got, kept) {
				t.Fatalf("%s: line %q was dropped after %q but survives alone (%q)", format.name, next, kept, got)
			}
		}
		// An append after the repair lands on its own line and round-trips.
		const n = 424242
		grown := reopen(t, kept, format.open, func(l openLog) {
			if err := l.append(n); err != nil {
				t.Fatalf("%s: append after open: %v", format.name, err)
			}
		})
		if tail, ok := bytes.CutPrefix(grown, kept); !ok || bytes.Count(tail, []byte("\n")) != 1 || tail[len(tail)-1] != '\n' {
			t.Fatalf("%s: append grew %q into %q, want exactly one more line", format.name, kept, grown)
		}
		found := false
		if final := reopen(t, grown, format.open, func(l openLog) { found = l.has(n) }); !bytes.Equal(final, grown) || !found {
			t.Fatalf("%s: appended record did not survive a reopen (found=%v, file %q → %q)", format.name, found, grown, final)
		}
	}
}

var appendLogSeeds = []string{
	"",
	"\n\n",
	`{"key":"a","result":1}` + "\n" + `{"key":"b","err":"boom","retries":[{"attempt":1,"backoff_us":5,"err":"x"}]}` + "\n",
	`{"key":"a","result":1}` + "\n" + `{"key":"c","resu`,
	`{"key":"a","result":1}` + "\n\n" + `{"key":"","result":2}` + "\n" + `{"key":"d","result":3}` + "\n",
	`{"key":"k","size":9,"val":{"kind":"time","val":123}}` + "\n" + `{"key":"n","size":2,"val":{"kind":"node","val":{}}}` + "\n",
	`{"key":"k","size":9,"val":{"kind":"clock","val":1}}` + "\n",
	`{"key":"k","size":9,"val":{"kind":"time","val":"soon"}}` + "\n" + `{"n":1}` + "\n",
	`{"n":1}` + "\n" + `[1]` + "\n" + `{"n":2}` + "\n",
	"\x00\xff{\n}\n",
	`{"key":"a","result":1}` + "\r\n",
}

// FuzzAppendLogOpen: arbitrary bytes as the existing file. It discharges
// journal-resume and cache-warm-start decoder fuzzing with one target,
// because there is one line scanner. Plain `go test` runs the seeds.
func FuzzAppendLogOpen(f *testing.F) {
	for _, s := range appendLogSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkAppendLogOpen)
}

// TestAppendLogFailStop: after the first failed Append every later one
// returns the same error and leaves the file alone, so a short write can
// only ever cost the record being written.
func TestAppendLogFailStop(t *testing.T) {
	m := iofault.NewMemFS(2)
	l, err := iofault.OpenAppendLog(m, logPath, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte(`{"n":1}`)); err != nil {
		t.Fatal(err)
	}
	m.FailOp(m.Ops()+1, iofault.ErrNoSpace) // the next write: short, then ENOSPC
	first := l.Append([]byte(`{"n":2,"pad":"................................"}`))
	if first == nil {
		t.Fatal("append over a failing write reported success")
	}
	torn, _ := m.ReadFile(logPath)
	ops := m.Ops()
	if err := l.Append([]byte(`{"n":3}`)); err != first {
		t.Fatalf("append after a failure = %v, want the first failure %v", err, first)
	}
	if after, _ := m.ReadFile(logPath); !bytes.Equal(after, torn) || m.Ops() != ops {
		t.Fatalf("append after a failure touched the file: %q → %q", torn, after)
	}
	kept := reopen(t, torn, logFormats[0].open, nil)
	if want := `{"n":1}` + "\n"; string(kept) != want {
		t.Fatalf("reopen after the fault kept %q, want %q", kept, want)
	}
}
