package par

import (
	"errors"
	"strings"
	"testing"
	"time"

	"sst/internal/sim"
)

// runWithDeadline guards a Run call that is expected to return on its own:
// if it is still going after the deadline the watchdog under test has
// failed and the test reports instead of hanging the suite.
func runWithDeadline(t *testing.T, d time.Duration, r *Runner) (uint64, error) {
	t.Helper()
	type res struct {
		n   uint64
		err error
	}
	ch := make(chan res, 1)
	go func() {
		n, err := r.RunAll()
		ch <- res{n, err}
	}()
	select {
	case out := <-ch:
		return out.n, out.err
	case <-time.After(d):
		t.Fatal("Run did not return: watchdog failed to fire")
		return 0, nil
	}
}

// TestWatchdogZeroDelayLoop pins the headline stall conversion: a model
// stuck in a zero-delay event loop (simulated time never advances, the
// window never completes) must produce a diagnostic error, not a hang.
func TestWatchdogZeroDelayLoop(t *testing.T) {
	r, err := NewRunner(2)
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := r.Connect("x", sim.Nanosecond, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.SetHandler(func(any) {})
	b.SetHandler(func(any) {})
	// Rank 0 spins: every event reschedules itself at delay zero.
	eng := r.Rank(0).Engine()
	var spin sim.Handler
	spin = func(any) { eng.Schedule(0, spin, nil) }
	eng.Schedule(0, spin, nil)
	// Rank 1 has normal sparse work.
	r.Rank(1).Engine().Schedule(time0(5), func(any) {}, nil)

	r.watchdog = 50 * time.Millisecond
	_, err = runWithDeadline(t, 10*time.Second, r)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	// The diagnostic must name each rank with its clock and queue state.
	for _, want := range []string{"rank 0", "rank 1", "clock=", "pending=", "outbox="} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic missing %q:\n%s", want, err.Error())
		}
	}
}

func time0(ns int64) sim.Time { return sim.Time(ns) * sim.Nanosecond }

// TestWatchdogDoesNotFireOnProgress runs a healthy model with a tight
// watchdog: windows complete quickly, so the watchdog must stay silent.
func TestWatchdogDoesNotFireOnProgress(t *testing.T) {
	forwarders = map[string]*forwardPinger{}
	r, err := NewRunner(2)
	if err != nil {
		t.Fatal(err)
	}
	buildRing(t, r, 4, 300, 10*sim.Nanosecond)
	first := forwarders["n0"]
	r.Rank(0).Engine().Schedule(0, func(any) { first.recv(0) }, nil)
	r.watchdog = 250 * time.Millisecond
	if _, err := r.RunAll(); err != nil {
		t.Fatalf("healthy run errored: %v", err)
	}
}

// panicComp panics on its Nth received payload.
type panicComp struct {
	name string
	seen int
	at   int
}

func (p *panicComp) Name() string { return p.name }

func (p *panicComp) recv(any) {
	p.seen++
	if p.seen >= p.at {
		panic("injected fault")
	}
}

// TestPanicNamesComponent pins the regression: a panicking component
// handler must surface as a per-rank error that names the component (via
// sim.Guard) and the rank, instead of killing the process.
func TestPanicNamesComponent(t *testing.T) {
	r, err := NewRunner(2)
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := r.Connect("c", sim.Nanosecond, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := &panicComp{name: "victim", at: 1}
	r.Rank(1).Add(pc)
	b.SetHandler(sim.Guard(pc.Name(), pc.recv))
	a.SetHandler(func(any) {})
	r.Rank(0).Engine().Schedule(0, func(any) { a.Send(1) }, nil)

	_, err = runWithDeadline(t, 10*time.Second, r)
	if err == nil {
		t.Fatal("panicking handler produced no error")
	}
	for _, want := range []string{`"victim"`, "rank 1", "injected fault"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
	var pe *sim.PanicError
	if !errors.As(err, &pe) || pe.Component != "victim" {
		t.Errorf("error does not carry the typed PanicError: %v", err)
	}
	if !errors.Is(err, ErrPanic) {
		t.Errorf("error does not wrap ErrPanic: %v", err)
	}
}

// TestPanicSingleRank covers the sequential fast path: with one rank the
// coordinator runs the engine inline and must still convert the panic.
func TestPanicSingleRank(t *testing.T) {
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := r.Rank(0).Engine()
	eng.Schedule(0, sim.Guard("solo", func(any) { panic("boom") }), nil)
	_, err = r.RunAll()
	if err == nil || !strings.Contains(err.Error(), `"solo"`) || !errors.Is(err, ErrPanic) {
		t.Fatalf("single-rank panic not converted: %v", err)
	}
	// A bare (unguarded) panic is marked the same way.
	r, err = NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	r.Rank(0).Engine().Schedule(0, func(any) { panic("bare") }, nil)
	if _, err = r.RunAll(); !errors.Is(err, ErrPanic) || !strings.Contains(err.Error(), "rank 0 at 0s: panic: bare") {
		t.Fatalf("bare single-rank panic: %v", err)
	}
}

// TestInterruptStopsRun covers the Ctrl-C path: Interrupt from another
// goroutine makes Run return sim.ErrInterrupted promptly, with partial
// progress recorded, for any rank count.
func TestInterruptStopsRun(t *testing.T) {
	for _, nranks := range []int{1, 2} {
		r, err := NewRunner(nranks)
		if err != nil {
			t.Fatal(err)
		}
		if nranks > 1 {
			a, b, cerr := r.Connect("x", sim.Nanosecond, 0, 1)
			if cerr != nil {
				t.Fatal(cerr)
			}
			a.SetHandler(func(any) {})
			b.SetHandler(func(any) {})
		}
		// Endless (but time-advancing) work on every rank.
		for i := 0; i < nranks; i++ {
			eng := r.Rank(i).Engine()
			var h sim.Handler
			h = func(any) { eng.Schedule(sim.Nanosecond, h, nil) }
			eng.Schedule(0, h, nil)
		}
		go func() {
			time.Sleep(20 * time.Millisecond)
			r.Interrupt()
		}()
		type res struct {
			n   uint64
			err error
		}
		ch := make(chan res, 1)
		go func() {
			n, err := r.RunAll()
			ch <- res{n, err}
		}()
		select {
		case out := <-ch:
			if !errors.Is(out.err, sim.ErrInterrupted) {
				t.Fatalf("nranks=%d: err = %v, want ErrInterrupted", nranks, out.err)
			}
			if out.n == 0 {
				t.Errorf("nranks=%d: no progress before interrupt", nranks)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("nranks=%d: interrupt did not stop the run", nranks)
		}
	}
}
