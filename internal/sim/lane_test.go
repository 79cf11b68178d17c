package sim

import (
	"fmt"
	"testing"
)

// orderedLane is what a scenario needs of a lane, so one scenario can run
// against the real Lane and against heapLane.
type orderedLane interface {
	Schedule(delay Time, fn Handler, payload any)
	ScheduleAt(t Time, fn Handler, payload any)
}

// heapLane is the order oracle for Lane: every entry an ordinary heap
// event with the lane's priority and label, through the engine's public
// scheduling path.
type heapLane struct {
	e     *Engine
	prio  Priority
	label string
}

func (l *heapLane) Schedule(d Time, fn Handler, p any) {
	l.e.ScheduleLabeled(d, l.prio, l.label, fn, p)
}

func (l *heapLane) ScheduleAt(t Time, fn Handler, p any) {
	l.e.ScheduleLabeledAt(t, l.prio, l.label, fn, p)
}

// lanesScenario builds a seeded random model that mixes heap events,
// clocks and several lanes, runs it to completion in slices and returns
// everything observable, as laneScenario does for clocks. With heapOnly
// the clocks are heapClocks and the lanes heapLanes, so the run is the
// all-heap reference. fallbacks counts the lane pushes that undercut their
// lane's tail (always 0 for the reference).
//
// Lane producers are mostly monotone — a push at or after the lane's
// newest time, often at the same instant — but one push in six lands at
// or just after now, which undercuts a busy lane and must fall back to the
// heap. Lanes sit in all three priority bands, one of them unlabeled so
// the untraced dispatch skips its label work; one seed in four runs with
// no tracer for that reason.
func lanesScenario(seed uint64, heapOnly bool) (log, spans []string, fallbacks int) {
	e := NewEngine()
	var tr *recTracer
	if seed%4 != 0 {
		tr = &recTracer{}
		e.SetTracer(tr)
	}
	rng := NewRNG(seed) // model decisions, drawn in dispatch order
	note := func(what string) {
		log = append(log, fmt.Sprintf("%d %s [%s]", e.now, what, e.curLabel))
	}

	freqs := []Hz{2 * GHz, 1333 * MHz, 800 * MHz}
	clocks := make([]laneClock, 1+rng.Intn(2))
	for i := range clocks {
		if heapOnly {
			clocks[i] = newHeapClock(e, freqs[i])
		} else {
			clocks[i] = NewClock(e, freqs[i])
		}
	}
	prios := []Priority{PrioClock, PrioLink, PrioLate}
	real := make([]*Lane, 2+rng.Intn(3))
	lanes := make([]orderedLane, len(real))
	newest := make([]Time, len(real)) // each lane's newest entry time
	for i := range lanes {
		prio, label := prios[rng.Intn(3)], fmt.Sprintf("lane%d", i)
		if i == 1 {
			label = ""
		}
		if heapOnly {
			lanes[i] = &heapLane{e: e, prio: prio, label: label}
		} else {
			real[i] = &Lane{}
			real[i].Init(e, prio, label)
			lanes[i] = real[i]
		}
	}
	boundary := func(r *RNG) Time {
		f := freqs[r.Intn(len(clocks))]
		n := f.CyclesIn(e.now) + Cycle(r.Intn(4))
		if f.CycleTime(n) < e.now {
			n++
		}
		return f.CycleTime(n)
	}

	budget := 400 + rng.Intn(300)
	var push func(li int)
	laneEvent := func(li int) Handler {
		return func(p any) {
			note(fmt.Sprintf("lane%d %v", li, p))
			if budget--; budget <= 0 {
				return
			}
			switch r := rng.Intn(12); {
			case r < 5:
				push(rng.Intn(len(lanes)))
			case r < 7:
				push(li)
				push(rng.Intn(len(lanes)))
			case r == 7:
				e.ScheduleAt(boundary(rng), prios[rng.Intn(3)], func(any) { note("event") }, nil)
			case r == 8:
				e.Stop()
			case r == 9:
				e.Interrupt()
			}
		}
	}
	pushes := 0
	push = func(li int) {
		var t Time
		switch r := rng.Intn(6); {
		case r == 0: // at or just after now: undercuts a busy lane
			t = e.now + Time(rng.Intn(2))
		case r == 1:
			t = max(e.now, newest[li])
		case r == 2:
			t = max(boundary(rng), newest[li])
		default:
			t = max(e.now, newest[li]) + Time(1+rng.Intn(3000))
		}
		if !heapOnly && real[li].n != 0 && t < real[li].tail {
			fallbacks++
		}
		newest[li] = max(newest[li], t)
		pushes++
		if rng.Intn(2) == 0 {
			lanes[li].ScheduleAt(t, laneEvent(li), pushes)
		} else {
			lanes[li].Schedule(t-e.now, laneEvent(li), pushes)
		}
	}
	for ci := range clocks {
		name := fmt.Sprintf("h%d", ci)
		life := 50 + rng.Intn(150)
		clocks[ci].RegisterNamed(name, func(cy Cycle) bool {
			note(fmt.Sprintf("tick %s c%d", name, cy))
			budget--
			if life--; budget <= 0 || life <= 0 {
				return false
			}
			if rng.Intn(3) == 0 {
				push(rng.Intn(len(lanes)))
			}
			return true
		})
	}
	for li := range lanes {
		push(li)
	}

	log = append(log, runSliced(e, seed, boundary)...)
	if tr != nil {
		for i := range tr.ats {
			spans = append(spans, fmt.Sprintf("%d %s", tr.ats[i], tr.labels[i]))
		}
	}
	return log, spans, fallbacks
}

// TestLanesMatchHeapOrder is the proof obligation of monotone lanes: on
// seeded random models mixing heap events, clocks and lanes — pushes that
// must fall back to the heap included — dispatching from the lanes merged
// with the heap is indistinguishable from an all-heap run: the dispatch
// log with each handler's label, Handled, Pending, PeakPending,
// NextEventTime and NextSeq after every Run(until), Step or horizon slice,
// and the tracer's spans.
func TestLanesMatchHeapOrder(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 40
	}
	events, fallbacks := 0, 0
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		wantLog, wantSpans, _ := lanesScenario(seed, true)
		gotLog, gotSpans, fb := lanesScenario(seed, false)
		if i := firstDiff(gotLog, wantLog); i >= 0 {
			t.Fatalf("seed %d: dispatch log diverges from the all-heap run at line %d:\n got %s\nwant %s",
				seed, i, at(gotLog, i), at(wantLog, i))
		}
		if i := firstDiff(gotSpans, wantSpans); i >= 0 {
			t.Fatalf("seed %d: tracer spans diverge from the all-heap run at span %d:\n got %s\nwant %s",
				seed, i, at(gotSpans, i), at(wantSpans, i))
		}
		events += len(wantLog)
		fallbacks += fb
	}
	if events < 200*seeds {
		t.Fatalf("scenarios too small to mean anything: %d log lines over %d seeds", events, seeds)
	}
	if fallbacks < seeds {
		t.Fatalf("only %d pushes fell back to the heap over %d seeds: the fallback rule is barely exercised", fallbacks, seeds)
	}
}

// TestLaneFallbackKeepsOrder pins the fallback rule on a hand-built case:
// an entry earlier than the lane's tail runs at its own time, ahead of the
// tail, and same-time entries run in schedule order across the lane and
// the heap.
func TestLaneFallbackKeepsOrder(t *testing.T) {
	e := NewEngine()
	var l Lane
	l.Init(e, PrioLink, "l")
	var got []string
	rec := func(p any) { got = append(got, fmt.Sprintf("%d:%v", e.Now(), p)) }
	l.ScheduleAt(10, rec, "a")
	l.ScheduleAt(30, rec, "b")
	l.ScheduleAt(20, rec, "c") // undercuts the tail: heap
	e.ScheduleAt(30, PrioLink, rec, "d")
	l.ScheduleAt(30, rec, "e")
	if l.n != 3 || e.q.Len() != 2 || e.Pending() != 5 {
		t.Fatalf("lane %d heap %d pending %d, want 3 2 5", l.n, e.q.Len(), e.Pending())
	}
	e.RunAll()
	want := "[10:a 20:c 30:b 30:d 30:e]"
	if s := fmt.Sprint(got); s != want {
		t.Fatalf("dispatch order %s, want %s", s, want)
	}
}

// TestLaneRingsRecycleThroughArena checks that lane rings move with the
// arena: a warm point takes its rings from the arena instead of allocating
// them, and harvested rings hold no references.
func TestLaneRingsRecycleThroughArena(t *testing.T) {
	arena := NewEventArena()
	lanes := make([]Lane, 3)
	nop := func(any) {}
	point := func() *Engine {
		e := NewEngine()
		arena.Lend(e)
		for i := range lanes {
			lanes[i] = Lane{}
			lanes[i].Init(e, PrioLink, "")
			for k := 0; k < 5+i*7; k++ {
				lanes[i].Schedule(Time(k), nop, nil)
			}
		}
		e.Run(4) // leave entries pending at harvest
		arena.Harvest(e)
		return e
	}
	point()
	if len(arena.rings) != 3 {
		t.Fatalf("arena holds %d rings after one point, want 3", len(arena.rings))
	}
	if n := testing.AllocsPerRun(20, func() { point() }); n > 1 {
		t.Fatalf("a warm point allocates %v times, want 1 (the engine itself)", n)
	}
	for _, r := range arena.rings {
		for _, ev := range r {
			if ev.fn != nil || ev.payload != nil {
				t.Fatal("harvested ring still references a handler or payload")
			}
		}
	}
	e := point()
	if e.Pending() != 0 || len(e.lanes) != 0 || len(e.ringed) != 0 || e.rings != nil {
		t.Fatal("harvested engine still holds lane state")
	}
}

// BenchmarkLaneDispatch is the lane path's steady state: four lanes, each
// holding four self-rescheduling entries at its own period, so every
// dispatch merges four lane heads against an empty heap, pops one (moving
// the next up from the ring) and appends it back at the ring's tail.
// ns/op is per dispatched event.
func BenchmarkLaneDispatch(b *testing.B) {
	e := NewEngine()
	lanes := make([]Lane, 4)
	n := 0
	for i := range lanes {
		l := &lanes[i]
		l.Init(e, PrioLink, "")
		d := Time(3 + i)
		var h Handler
		h = func(any) {
			if n++; n < b.N {
				l.Schedule(4*d, h, nil)
			}
		}
		for k := Time(1); k <= 4; k++ {
			l.Schedule(k*d, h, nil)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	e.RunAll()
}
