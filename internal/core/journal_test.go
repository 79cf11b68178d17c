package core

// Resumable-sweep properties: a journal survives a torn final line, resume
// restores completed points instead of re-running them, a resumed grid is
// field-for-field identical to an uninterrupted one, and a per-point
// deadline marks a point Failed without wedging the sweep.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	cachepkg "sst/internal/cache"
	"sst/internal/iofault"
	"sst/internal/sim"
)

// TestJournalTruncatedTail: a crash mid-append leaves a partial final
// line; opening with resume must keep every complete record, drop the torn
// tail, and leave the file appendable.
func TestJournalTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	full := `{"key":"a","result":1}` + "\n" + `{"key":"b","err":"boom"}` + "\n"
	if err := os.WriteFile(path, []byte(full+`{"key":"c","resu`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournalFS(iofault.Disk, path, true)
	if err != nil {
		t.Fatal(err)
	}
	if ent, ok := j.Completed("a"); !ok || ent.Err != "" || string(ent.Result) != "1" {
		t.Fatalf("entry a = %+v, %v", ent, ok)
	}
	if ent, ok := j.Completed("b"); !ok || ent.Err != "boom" {
		t.Fatalf("entry b = %+v, %v", ent, ok)
	}
	if _, ok := j.Completed("c"); ok {
		t.Fatal("torn entry c survived")
	}
	if err := j.Record("c", json.RawMessage("3"), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := full + `{"key":"c","result":3}` + "\n"; string(raw) != want {
		t.Fatalf("journal file after truncate+append:\n%q\nwant:\n%q", raw, want)
	}
}

// TestRunPointsJournaledResume kills a sweep after half its points (via
// context cancellation), then resumes: the journaled points must be
// restored without re-running, the rest must run, and the final state must
// equal an uninterrupted sweep's.
func TestRunPointsJournaledResume(t *testing.T) {
	const n = 6
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	points := func(ran *atomic.Int64, after func()) grid[int] {
		return grid[int]{
			n:    n,
			name: func(i int) string { return fmt.Sprintf("p%d", i) },
			run: func(_ context.Context, i int) (int, error) {
				if ran.Add(1) == 3 {
					after()
				}
				return 100 + i, nil
			},
		}
	}

	// First run: single worker, cancel after 3 points complete.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran1 atomic.Int64
	opts := SweepOptions{Workers: 1, Context: ctx, Journal: path}
	_, errs, err := runGrid(opts, points(&ran1, cancel))
	if err == nil {
		t.Fatal("cancelled sweep reported no error")
	}
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("point %d failed before cancellation: %v", i, errs[i])
		}
	}
	for i := 3; i < n; i++ {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("point %d error = %v, want skipped-by-cancellation", i, errs[i])
		}
	}

	// Resume: the three journaled points are restored, the rest run.
	var ran2 atomic.Int64
	opts2 := SweepOptions{Workers: 1, Journal: path, Resume: true}
	out2, _, err := runGrid(opts2, points(&ran2, func() {}))
	if err != nil {
		t.Fatal(err)
	}
	if got := ran2.Load(); got != n-3 {
		t.Fatalf("resume ran %d points, want %d", got, n-3)
	}
	want := make([]int, n)
	for i := range want {
		want[i] = 100 + i
	}
	if !reflect.DeepEqual(out2, want) {
		t.Fatalf("resumed results %v, want %v", out2, want)
	}
}

// TestMemTechWidthSweepJournalResume: journal a real DSE sweep with a
// torn tail injected, resume, and require the grid to be field-for-field
// identical to the uninterrupted sweep.
func TestMemTechWidthSweepJournalResume(t *testing.T) {
	apps := []string{"stream"}
	techs := []string{"ddr3-1333"}
	widths := []int{1, 2}
	ref, err := MemTechWidthSweep(apps, techs, widths, Small, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dse.jsonl")
	if _, err := MemTechWidthSweep(apps, techs, widths, Small,
		SweepOptions{Workers: 2, Journal: path}); err != nil {
		t.Fatal(err)
	}
	// Tear the journal: drop the final record's tail, as if the process
	// died mid-append, leaving one complete point and one torn one.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != len(widths) {
		t.Fatalf("journal has %d lines, want %d", len(lines), len(widths))
	}
	last := lines[len(lines)-1]
	torn := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := MemTechWidthSweep(apps, techs, widths, Small,
		SweepOptions{Workers: 2, Journal: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	// HostSeconds is host wall time — the one legitimately nondeterministic
	// field; every simulated quantity must match exactly.
	norm := func(g *DSEGrid) []DSEPoint {
		out := make([]DSEPoint, len(g.Points))
		for i, p := range g.Points {
			r := *p.Result
			r.HostSeconds = 0
			p.Result = &r
			out[i] = p
		}
		return out
	}
	if gotN, refN := norm(got), norm(ref); !reflect.DeepEqual(gotN, refN) {
		t.Fatalf("resumed grid diverged\n got %+v\nwant %+v", gotN, refN)
	}
}

// TestJournalResumeWithWarmCacheByteIdentical: the cache × journal
// interaction. A journaled sweep is torn mid-grid (crash mid-append), then
// resumed with a warm result cache: journaled points restore from the
// journal, the torn point comes back as a cache hit, and the final grid
// must render byte-identical (CSV) — and field-for-field equal — to an
// uninterrupted, uncached run.
func TestJournalResumeWithWarmCacheByteIdentical(t *testing.T) {
	apps := []string{"stream"}
	techs := []string{"ddr3-1333"}
	widths := []int{1, 2}

	// Reference: uninterrupted, uncached.
	ref, err := MemTechWidthSweep(apps, techs, widths, Small, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	if err := ref.WriteCSV(&refCSV); err != nil {
		t.Fatal(err)
	}

	// Warm the cache with a full run, journaling as we go.
	c, err := NewSweepCache(64, cachepkg.LRU, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	path := filepath.Join(t.TempDir(), "dse.jsonl")
	if _, err := MemTechWidthSweep(apps, techs, widths, Small,
		SweepOptions{Workers: 2, Journal: path, Cache: c}); err != nil {
		t.Fatal(err)
	}

	// Tear the journal's final record, as if the process died mid-append.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	last := lines[len(lines)-1]
	torn := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume with the warm cache: the torn point must be served from the
	// cache, not re-simulated.
	before := c.Stats()
	got, err := MemTechWidthSweep(apps, techs, widths, Small,
		SweepOptions{Workers: 2, Journal: path, Resume: true, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Hits != before.Hits+1 {
		t.Errorf("resume took %d cache hits, want exactly 1 (the torn point)", after.Hits-before.Hits)
	}
	if after.Misses != before.Misses {
		t.Errorf("resume re-simulated %d points, want 0", after.Misses-before.Misses)
	}

	var gotCSV bytes.Buffer
	if err := got.WriteCSV(&gotCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), refCSV.Bytes()) {
		t.Errorf("resumed+cached grid CSV differs from uninterrupted uncached run\n got %s\nwant %s",
			gotCSV.Bytes(), refCSV.Bytes())
	}
	norm := func(g *DSEGrid) []DSEPoint {
		out := make([]DSEPoint, len(g.Points))
		for i, p := range g.Points {
			r := *p.Result
			r.HostSeconds = 0
			p.Result = &r
			out[i] = p
		}
		return out
	}
	if gotN, refN := norm(got), norm(ref); !reflect.DeepEqual(gotN, refN) {
		t.Fatalf("resumed+cached grid diverged\n got %+v\nwant %+v", gotN, refN)
	}
}

// TestPointTimeoutMarksFailed: a sweep whose points cannot finish inside
// PointTimeout must mark them Failed with an interruption error instead of
// wedging the worker pool, and the sweep error must carry ErrPointFailed.
func TestPointTimeoutMarksFailed(t *testing.T) {
	g, err := MemTechWidthSweep([]string{"stream"}, []string{"ddr3-1333"}, []int{2}, Small,
		SweepOptions{Workers: 1, PointTimeout: time.Nanosecond})
	if err == nil {
		t.Fatal("timed-out sweep reported no error")
	}
	if !errors.Is(err, ErrPointFailed) {
		t.Fatalf("sweep error %v does not wrap ErrPointFailed", err)
	}
	failed := g.Failed()
	if len(failed) != 1 {
		t.Fatalf("%d failed points, want 1", len(failed))
	}
	if !errors.Is(failed[0].Err, context.DeadlineExceeded) {
		t.Fatalf("point error %v does not wrap context.DeadlineExceeded", failed[0].Err)
	}
	// The timeout must not masquerade as a SIGINT-style interruption —
	// commands map those to different exit codes.
	if errors.Is(err, sim.ErrInterrupted) || errors.Is(err, context.Canceled) {
		t.Fatalf("timeout error %v carries an interruption sentinel", err)
	}
	if failed[0].Result != nil {
		t.Fatal("timed-out point still produced a result")
	}
}

// TestJournalLineMatchesMarshal: the direct record encoder writes the bytes
// json.Marshal(journalEntry) would — success records, failure records whose
// text needs HTML or non-ASCII escaping, and records with retries — so
// journals written by either stay mutually readable and byte-identical.
func TestJournalLineMatchesMarshal(t *testing.T) {
	result, err := json.Marshal(map[string]any{"ipc": 1.5, "name": "a<b>&c", "n": []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	retries := []RetryRecord{{Attempt: 1, BackoffUS: 250, Err: `core: point 3: "panicked" <&>`}, {Attempt: 2, BackoffUS: 500, Err: "é\u2028"}}
	ents := []journalEntry{
		{Key: "p0", Result: result},
		{Key: "mem-tech-width/hpccg/ddr3-1333/4", Result: json.RawMessage("3")},
		{Key: "p1"},
		{Key: "p2", Err: `core: point 2: bad <config> & "quotes" \ back`},
		{Key: "p3", Err: "naïve — 日本語 \x01\t\b\f \xff"},
		{Key: "k<&>\"é", Err: "boom", Retries: retries},
		{Key: "p4", Retries: retries, Result: result},
		{Key: "p5", Retries: []RetryRecord{}, Result: result},
		{Key: ""},
	}
	// Each escaped byte alone, so no test string is escaped only because it
	// also holds some other special character.
	for _, c := range []string{"<", ">", "&", `"`, `\`, "\n", "\x1f", "\x7f", "\u2028", "\u2029", "\xc3"} {
		ents = append(ents, journalEntry{Key: "k" + c, Err: "e" + c + "x"})
	}
	for _, ent := range ents {
		want, err := json.Marshal(ent)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendJournalLine(nil, &ent)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("entry %q:\n got %s\nwant %s", ent.Key, got, want)
		}
	}
}

// journalLines reads a journal into its lines by key; journal order
// follows worker completion, so lines are compared by key.
func journalLines(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		var ent journalEntry
		if err := json.Unmarshal([]byte(line), &ent); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		lines[ent.Key] = line
	}
	return lines
}

// TestJournalHitMatchesMiss: a point journals the same line whether it was
// simulated (a miss, which fills the cache), served from the cache (a hit,
// whose bytes are the ones stored at the miss) or served from a cache
// warm-started from its file (whose bytes come back from the record). Both
// cached kinds: node results (the DSE grid) and scalar times (the network
// study).
func TestJournalHitMatchesMiss(t *testing.T) {
	studies := map[string]func(SweepOptions) error{
		"dse": func(opts SweepOptions) error {
			_, err := MemTechWidthSweep([]string{"stream", "gups"}, []string{"ddr3-1333"}, []int{1, 2}, Small, opts)
			return err
		},
		"net": func(opts SweepOptions) error {
			_, err := NetDegradationStudy(NetStudyConfig{Nodes: 8, Fractions: []float64{1, 0.5}, Steps: 2}, opts)
			return err
		},
	}
	for name, run := range studies {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			file := filepath.Join(dir, "cache.jsonl")
			c, err := NewSweepCache(64, cachepkg.LRU, nil, file)
			if err != nil {
				t.Fatal(err)
			}
			sweep := func(c *cachepkg.Cache, pass string, allHits bool) map[string]string {
				t.Helper()
				before := c.Stats()
				journal := filepath.Join(dir, pass+".jsonl")
				if err := run(SweepOptions{Workers: 3, Cache: c, Journal: journal}); err != nil {
					t.Fatalf("%s: %v", pass, err)
				}
				st := c.Stats()
				hits, misses := st.Hits-before.Hits, st.Misses-before.Misses
				if allHits != (misses == 0) || allHits != (hits > 0) {
					t.Fatalf("%s: %d hits, %d misses; all hits: %v", pass, hits, misses, allHits)
				}
				return journalLines(t, journal)
			}
			cold := sweep(c, "cold", false)
			warm := sweep(c, "warm", true)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			c2, err := NewSweepCache(64, cachepkg.LRU, nil, file)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			started := sweep(c2, "warm-started", true)
			for pass, lines := range map[string]map[string]string{"warm": warm, "warm-started": started} {
				if !reflect.DeepEqual(lines, cold) {
					t.Errorf("%s journal differs from the cold one\n got %v\nwant %v", pass, lines, cold)
				}
			}
		})
	}
}

// discardFS is MemFS with file contents thrown away, so a benchmark can
// append forever at constant memory.
type discardFS struct{ iofault.FS }

type discardFile struct{}

func (discardFS) Create(string) (iofault.File, error)     { return discardFile{}, nil }
func (discardFS) OpenAppend(string) (iofault.File, error) { return discardFile{}, nil }
func (discardFile) Write(p []byte) (int, error)           { return len(p), nil }
func (discardFile) Sync() error                           { return nil }
func (discardFile) Close() error                          { return nil }

// BenchmarkJournalRecord: one success record per op, storage discarded, so
// what is measured is encoding and the append-log copy. It allocates
// nothing.
func BenchmarkJournalRecord(b *testing.B) {
	raw, err := json.Marshal(&NodeResult{Name: "stencil-ddr3-1333-w4", IPC: 1.5, Seconds: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("p%d", i)
	}
	j, err := OpenJournalFS(discardFS{iofault.NewMemFS(0)}, "journal.jsonl", false)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Record(keys[i%len(keys)], raw, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
