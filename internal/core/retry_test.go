package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sst/internal/iofault"
	"sst/internal/leakcheck"
)

// flakyFn fails the first failures attempts of every point by panicking,
// then succeeds. Safe for concurrent workers.
type flakyFn struct {
	mu       sync.Mutex
	failures int
	attempts map[int]int
}

func (f *flakyFn) run(_ context.Context, i int) error {
	f.mu.Lock()
	if f.attempts == nil {
		f.attempts = make(map[int]int)
	}
	f.attempts[i]++
	n := f.attempts[i]
	f.mu.Unlock()
	if n <= f.failures {
		panic(fmt.Sprintf("transient wobble on point %d attempt %d", i, n))
	}
	return nil
}

func (f *flakyFn) count(i int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts[i]
}

// attemptsSink records PointDone attempts per index.
type attemptsSink struct {
	mu sync.Mutex
	by map[int]int
}

func (s *attemptsSink) PointDone(r PointReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.by == nil {
		s.by = make(map[int]int)
	}
	s.by[r.Index] = r.Attempts
}

func TestRetryRecoversFlakyPoint(t *testing.T) {
	leakcheck.Check(t)
	fn := &flakyFn{failures: 2}
	sink := &attemptsSink{}
	opts := SweepOptions{
		Workers: 2, Metrics: sink,
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, Jitter: 0.5, Seed: 7},
	}
	errs, err := runFn(opts, 3, fn.run)
	if err != nil {
		t.Fatalf("flaky sweep failed despite retry budget: %v", err)
	}
	for i, e := range errs {
		if e != nil {
			t.Errorf("point %d: %v", i, e)
		}
		if got := fn.count(i); got != 3 {
			t.Errorf("point %d ran %d times, want 3", i, got)
		}
		if got := sink.by[i]; got != 3 {
			t.Errorf("point %d reported %d attempts, want 3", i, got)
		}
	}
}

func TestRetryQuarantinesAfterBudget(t *testing.T) {
	leakcheck.Check(t)
	fn := &flakyFn{failures: 99}
	opts := SweepOptions{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 3, Seed: 7},
	}
	errs, err := runFn(opts, 1, fn.run)
	if err == nil {
		t.Fatal("always-panicking point reported success")
	}
	for _, e := range []error{err, errs[0]} {
		if !errors.Is(e, ErrQuarantined) {
			t.Errorf("error does not wrap ErrQuarantined: %v", e)
		}
		if !errors.Is(e, ErrPanicked) {
			t.Errorf("error does not wrap ErrPanicked: %v", e)
		}
	}
	if got := fn.count(0); got != 3 {
		t.Fatalf("point ran %d times, want exactly the 3-attempt budget", got)
	}
}

func TestRetrySkipsDeterministicFailures(t *testing.T) {
	leakcheck.Check(t)
	runs := 0
	opts := SweepOptions{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 5, Seed: 7},
	}
	boom := errors.New("width 3 is not a power of two")
	errs, err := runFn(opts, 1, func(context.Context, int) error {
		runs++
		return boom
	})
	if err == nil || !errors.Is(errs[0], boom) {
		t.Fatalf("deterministic failure lost: %v", err)
	}
	if errors.Is(errs[0], ErrQuarantined) {
		t.Errorf("deterministic failure wrongly quarantined: %v", errs[0])
	}
	if runs != 1 {
		t.Fatalf("deterministic failure ran %d times, want 1 (no retry)", runs)
	}
}

func TestRetryTimeoutGetsStretchedDeadline(t *testing.T) {
	leakcheck.Check(t)
	var mu sync.Mutex
	var budgets []time.Duration
	opts := SweepOptions{
		Workers:      1,
		PointTimeout: time.Second,
		Retry:        RetryPolicy{RetryTimeouts: true, TimeoutScale: 4, Seed: 7},
	}
	_, err := runFn(opts, 1, func(ctx context.Context, _ int) error {
		dl, ok := ctx.Deadline()
		if !ok {
			t.Error("point context has no deadline despite PointTimeout")
		}
		mu.Lock()
		budgets = append(budgets, time.Until(dl))
		n := len(budgets)
		mu.Unlock()
		if n == 1 {
			return fmt.Errorf("wedged: %w", context.DeadlineExceeded)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("slow-then-fine point failed: %v", err)
	}
	if len(budgets) != 2 {
		t.Fatalf("point ran %d times, want 2 (one timeout retry)", len(budgets))
	}
	// Scale 4 with a 1s base: the retry's remaining budget must clearly
	// exceed the first attempt's even under scheduling noise.
	if budgets[1] < 2*budgets[0] {
		t.Fatalf("retry deadline %v not stretched over first %v", budgets[1], budgets[0])
	}
}

func TestRetryTimeoutOnlyOnce(t *testing.T) {
	leakcheck.Check(t)
	runs := 0
	opts := SweepOptions{
		Workers:      1,
		PointTimeout: time.Second,
		Retry:        RetryPolicy{MaxAttempts: 5, RetryTimeouts: true, Seed: 7},
	}
	errs, err := runFn(opts, 1, func(context.Context, int) error {
		runs++
		return fmt.Errorf("still wedged: %w", context.DeadlineExceeded)
	})
	if err == nil {
		t.Fatal("always-wedged point reported success")
	}
	if runs != 2 {
		t.Fatalf("wedged point ran %d times, want 2 (timeouts get one retry, not the panic budget)", runs)
	}
	if !errors.Is(errs[0], ErrQuarantined) {
		t.Errorf("exhausted timeout retry not quarantined: %v", errs[0])
	}
}

func TestRetryRespectsSweepCancellation(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	runs := 0
	opts := SweepOptions{
		Workers: 1, Context: ctx,
		Retry: RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Hour, Seed: 7},
	}
	errs, err := runFn(opts, 1, func(context.Context, int) error {
		runs++
		cancel() // sweep drained mid-point: the hour-long backoff must not run
		panic("transient")
	})
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	if runs != 1 {
		t.Fatalf("cancelled point ran %d times, want 1", runs)
	}
	if !errors.Is(errs[0], ErrPanicked) {
		t.Errorf("original failure lost on cancellation: %v", errs[0])
	}
}

type fixedRNG struct{ v float64 }

func (r fixedRNG) Float64() float64 { return r.v }

func TestBackoffSchedule(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 35 * time.Millisecond}
	mid := fixedRNG{0.5} // jitter factor 1.0
	for _, c := range []struct {
		attempt int
		want    time.Duration
	}{
		{1, 10 * time.Millisecond},
		{2, 20 * time.Millisecond},
		{3, 35 * time.Millisecond}, // capped
		{4, 35 * time.Millisecond},
	} {
		if got := p.backoff(c.attempt, mid); got != c.want {
			t.Errorf("backoff(%d) = %v, want %v", c.attempt, got, c.want)
		}
	}
	jit := RetryPolicy{BaseBackoff: 10 * time.Millisecond, Jitter: 0.5}
	lo := jit.backoff(1, fixedRNG{0}) // factor 0.75
	hi := jit.backoff(1, fixedRNG{0.999})
	if lo != 7500*time.Microsecond || hi <= lo {
		t.Errorf("jitter spread [%v, %v] not centred on base", lo, hi)
	}
}

// TestRetryJournalDeterminism pins the byte-identity promise: two runs of
// the same flaky journaled sweep, same seed, produce the same journal
// bytes — retry records, backoff delays and all.
func TestRetryJournalDeterminism(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	journalOf := func(path string) []byte {
		fn := &flakyFn{failures: 2}
		opts := SweepOptions{
			Workers: 1, Journal: path,
			Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: 5 * time.Microsecond, Jitter: 0.8, Seed: 42},
		}
		pts := grid[int]{
			n:    3,
			name: func(i int) string { return fmt.Sprintf("pt/%d", i) },
			run:  func(ctx context.Context, i int) (int, error) { return i * i, fn.run(ctx, i) },
		}
		if _, _, err := runGrid(opts, pts); err != nil {
			t.Fatalf("journaled flaky sweep failed: %v", err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a := journalOf(filepath.Join(dir, "a.jsonl"))
	b := journalOf(filepath.Join(dir, "b.jsonl"))
	if !bytes.Equal(a, b) {
		t.Fatalf("journals differ across identical runs:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(`"retries":[{"attempt":1,`)) {
		t.Fatalf("journal lacks retry records:\n%s", a)
	}
	// The recorded failure text must be the first line only — stack traces
	// carry addresses and goroutine IDs that would break byte-identity.
	for _, line := range bytes.Split(bytes.TrimSpace(a), []byte("\n")) {
		var ent journalEntry
		if err := json.Unmarshal(line, &ent); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		for _, r := range ent.Retries {
			if strings.Contains(r.Err, "goroutine") {
				t.Fatalf("retry record leaked a stack trace: %q", r.Err)
			}
		}
	}
}

// TestRetrySeedChangesBackoffs: different sweep seeds yield different
// jittered schedules, proving the jitter really flows from the seed.
func TestRetrySeedChangesBackoffs(t *testing.T) {
	schedule := func(seed uint64) []int64 {
		fn := &flakyFn{failures: 3}
		// The journal is the executor's record of retry history.
		path := filepath.Join(t.TempDir(), "j.jsonl")
		opts := SweepOptions{
			Workers: 1, Journal: path,
			Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Microsecond, Jitter: 0.9, Seed: seed},
		}
		pts := grid[int]{
			n:    1,
			name: func(int) string { return "pt" },
			run:  func(ctx context.Context, i int) (int, error) { return 0, fn.run(ctx, i) },
		}
		if _, _, err := runGrid(opts, pts); err != nil {
			t.Fatalf("sweep failed: %v", err)
		}
		j, err := OpenJournalFS(iofault.Disk, path, true)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		ent, _ := j.Completed("pt")
		var got []int64
		for _, r := range ent.Retries {
			got = append(got, r.BackoffUS)
		}
		return got
	}
	a, b := schedule(1), schedule(2)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("want 3 retry records per run, got %d and %d", len(a), len(b))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("seeds 1 and 2 produced identical backoffs %v — jitter not seed-derived", a)
	}
}
