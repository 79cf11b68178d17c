package core

// Transient-failure retry for sweep points. A design point can fail for
// two reasons that say nothing about the design: a model bug that panics
// under a rare event interleaving, or a wedged simulation cut off by
// PointTimeout. Both are worth one more try before the point is written
// off — but retries must not cost determinism. The backoff schedule is
// therefore derived from the sweep seed and the point's index through the
// same named-stream construction the fault injectors use
// (fault.StreamSeed), so two runs of the same flaky sweep produce the same
// delays, the same journal bytes and the same tables. A point that keeps
// failing is quarantined: it is marked Failed after its attempt budget and
// never wedges a pool worker again, which is what lets a long-running
// sweep service survive a pathological design point.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"sst/internal/fault"
	"sst/internal/sim"
)

// ErrPanicked marks a per-point error that came from a recovered panic.
// Panics are the transient class the retry policy re-attempts: a model
// that panics under one event interleaving may complete under the next,
// and a model that panics deterministically exhausts its budget and is
// quarantined.
var ErrPanicked = errors.New("point panicked")

// ErrQuarantined marks a point that failed every attempt its retry policy
// allowed. The point is Failed in the grid like any other failure; the
// distinct sentinel lets schedulers (internal/serve) keep a quarantine
// list and report it.
var ErrQuarantined = errors.New("point quarantined")

// RetryPolicy configures per-point retry. The zero value disables retry
// entirely (one attempt, no quarantine wrapping), which keeps existing
// sweeps byte-identical to previous releases.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per point, including the
	// first run; <= 1 means panics are not retried.
	MaxAttempts int

	// BaseBackoff is the delay before the second attempt; each further
	// retry doubles it. Zero means retry immediately.
	BaseBackoff time.Duration

	// MaxBackoff caps the exponential growth when > 0.
	MaxBackoff time.Duration

	// Jitter spreads each backoff uniformly over
	// [1-Jitter/2, 1+Jitter/2) × the exponential delay. The spread is
	// drawn from a stream seeded by (Seed, point index), so it is
	// identical across runs of the same sweep.
	Jitter float64

	// Seed is the root seed of the backoff jitter streams.
	Seed uint64

	// RetryTimeouts grants a point that exceeded PointTimeout exactly one
	// extra attempt, run at TimeoutScale × the original deadline. One —
	// not MaxAttempts — because a wedged point usually stays wedged, and
	// the longer deadline is what distinguishes "slow" from "stuck".
	RetryTimeouts bool

	// TimeoutScale stretches the retried attempt's deadline; values <= 1
	// default to 2.
	TimeoutScale float64
}

// backoff returns the delay before the retry that follows failed attempt a
// (1-based), jittered from the point's deterministic stream.
func (p RetryPolicy) backoff(a int, rng interface{ Float64() float64 }) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < a && d < 1<<40; i++ {
		d *= 2
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if d > 0 && p.Jitter > 0 {
		f := 1 + p.Jitter*(rng.Float64()-0.5)
		if f < 0 {
			f = 0
		}
		d = time.Duration(float64(d) * f)
	}
	return d
}

// RetryRecord describes one failed attempt of a design point: which
// attempt failed, how long the scheduler backed off before the next one,
// and the failure's first line. Records land in the sweep journal, so
// they must be deterministic: the backoff is seeded and the error text is
// truncated before any stack trace.
type RetryRecord struct {
	// Attempt is the 1-based attempt that failed.
	Attempt int `json:"attempt"`
	// BackoffUS is the delay before the next attempt, microseconds.
	BackoffUS int64 `json:"backoff_us"`
	// Err is the first line of the attempt's error.
	Err string `json:"err"`
}

// firstLine truncates s at its first newline — retry records and table
// cells keep the message, not the stack trace behind it.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// sleepCtx waits d, abandoning the wait (and returning false) when ctx is
// cancelled; a sweep being drained must not sit out a backoff.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// retrier carries one design point's retry state between attempts.
type retrier struct {
	pol   RetryPolicy
	base  time.Duration // the sweep's PointTimeout
	point int

	stretched bool     // the one timeout retry is spent
	rng       *sim.RNG // backoff jitter stream, made on first use
	// recs holds one RetryRecord per failed-then-retried attempt.
	recs []RetryRecord
}

// next rules on attempt a (1-based), which ended in err: it reports the
// point's error so far, whether to run the point again and, if so, under
// which deadline. Deterministic failures stand after one attempt,
// untouched; transient ones (panics, and — once, at a stretched deadline —
// PointTimeout expiry when the policy allows it) go again after a seeded
// backoff, which next sits out, until they succeed or the budget runs out,
// at which point the error additionally wraps ErrQuarantined.
func (r *retrier) next(ctx context.Context, a int, err error) (timeout time.Duration, again bool, _ error) {
	if err == nil || ctx.Err() != nil {
		// Done — or the sweep itself is cancelled or out of time: the
		// failure stands and resume (or the next job run) will retry it.
		return 0, false, err
	}
	timeout = r.base
	switch {
	case r.base > 0 && errors.Is(err, context.DeadlineExceeded) && r.pol.RetryTimeouts && !r.stretched:
		// One retry at a longer deadline: a point that is merely slow
		// completes, a wedged one fails again and is done.
		r.stretched = true
		scale := r.pol.TimeoutScale
		if scale <= 1 {
			scale = 2
		}
		timeout = time.Duration(float64(timeout) * scale)
	case errors.Is(err, ErrPanicked) && a < r.pol.MaxAttempts:
		// Plain transient retry.
	default:
		if a > 1 {
			err = fmt.Errorf("%w after %d attempts: %w", ErrQuarantined, a, err)
		}
		return 0, false, err
	}
	if r.rng == nil {
		r.rng = fault.NewStream(r.pol.Seed, fmt.Sprintf("retry/point/%d", r.point))
	}
	d := r.pol.backoff(a, r.rng)
	r.recs = append(r.recs, RetryRecord{Attempt: a, BackoffUS: d.Microseconds(), Err: firstLine(err.Error())})
	return timeout, sleepCtx(ctx, d), err
}
