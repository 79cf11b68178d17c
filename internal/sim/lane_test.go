package sim

import (
	"fmt"
	"math"
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
// clocks and lanes, runs it to completion in slices and returns everything
// observable, as laneScenario does for clocks. With heapOnly the clocks are
// heapClocks and the lanes heapLanes, so the run is the all-heap
// reference. fallbacks counts the lane pushes that undercut their lane's
// tail (always 0 for the reference).
//
// Lane producers are mostly monotone — a push at or after the lane's
// newest time, often at the same instant — but one push in six lands at
// or just after now, which undercuts a busy lane and must fall back to the
// heap. Lanes sit in all three priority bands, one of them unlabeled so
// the untraced dispatch skips its label work; one seed in four runs with
// no tracer for that reason. A lane's handler often pushes to its own
// lane, refilling it from its own dispatch when it held just that entry,
// and clocks go dormant when their handlers expire and re-arm when a lane
// event registers a new one. Every third seed runs hundreds of lanes, so
// the lane heap is deep and the dispatching lane sinks far after its
// handler. peakLanes is the most lanes the lane heap held at any dispatch
// (always 0 for the reference).
func lanesScenario(seed uint64, heapOnly bool) (log, spans []string, fallbacks, peakLanes int) {
	e := NewEngine()
	var tr *recTracer
	if seed%4 != 0 {
		tr = &recTracer{}
		e.SetTracer(tr)
	}
	rng := NewRNG(seed) // model decisions, drawn in dispatch order
	note := func(what string) {
		peakLanes = max(peakLanes, len(e.lanes))
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
	nlanes, budget := 2+rng.Intn(3), 400+rng.Intn(300)
	if seed%3 == 0 {
		nlanes, budget = manyLanes+rng.Intn(64), 3000+rng.Intn(1000)
	}
	real := make([]*Lane, nlanes)
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

	var push func(li int)
	var register func(ci int)
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
			case r == 10:
				register(rng.Intn(len(clocks)))
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
	handlers := 0
	register = func(ci int) {
		name := fmt.Sprintf("h%d.%d", ci, handlers)
		handlers++
		life := 20 + rng.Intn(150)
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
	for ci := range clocks {
		register(ci)
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
	return log, spans, fallbacks, peakLanes
}

// manyLanes is the least lane count of TestLanesMatchHeapOrder's large
// scenarios: a 32-node torus network keeps 192 lanes.
const manyLanes = 256

// TestLanesMatchHeapOrder is the proof obligation of monotone lanes and the
// lane heap: on seeded random models mixing heap events, clocks and up to
// a few hundred lanes — pushes that must fall back to the heap, lanes that
// refill from their own dispatch and clocks that go dormant and re-arm
// included — dispatching from the lane heap merged with the event heap is
// indistinguishable from an all-heap run: the dispatch log with each
// handler's label, Handled, Pending, PeakPending, NextEventTime and
// NextSeq after every Run(until), Step or horizon slice, and the tracer's
// spans.
func TestLanesMatchHeapOrder(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 40
	}
	events, fallbacks := 0, 0
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		wantLog, wantSpans, _, _ := lanesScenario(seed, true)
		gotLog, gotSpans, fb, peak := lanesScenario(seed, false)
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
		if seed%3 == 0 && peak < manyLanes {
			t.Fatalf("seed %d: the lane heap held at most %d lanes at a dispatch; want >= %d", seed, peak, manyLanes)
		}
	}
	if events < 200*seeds {
		t.Fatalf("scenarios too small to mean anything: %d log lines over %d seeds", events, seeds)
	}
	if fallbacks < seeds {
		t.Fatalf("only %d pushes fell back to the heap over %d seeds: the fallback rule is barely exercised", fallbacks, seeds)
	}
}

// keyWord names the first word of the dispatch key (at, prio, seq) in
// which a's and b's heads differ: the word that decides the borrow out of
// precedes.
func keyWord(a, b *Lane) int {
	switch {
	case a.at != b.at:
		return 0
	case a.prio != b.prio:
		return 1
	}
	return 2
}

// TestPrecedesMatchesBefore checks the lane heap's branch-free compare
// against before on hand-picked heads: each word of the borrow chain
// decides, priorities straddle zero and the int32 extremes, and the lower
// words disagree with the deciding one, so a borrow that leaked past its
// word would flip the answer.
func TestPrecedesMatchesBefore(t *testing.T) {
	type head struct {
		at   Time
		prio Priority
		seq  uint64
	}
	cases := []struct {
		a, b head
		word int
	}{
		{head{5, PrioLate, 9}, head{6, -7, 1}, 0},
		{head{1 << 40, math.MaxInt32, 1<<63 + 1}, head{1<<40 + 1, math.MinInt32, 0}, 0},
		{head{^Time(0) - 1, 0, 2}, head{^Time(0), 0, 1}, 0},
		{head{7, -7, 9}, head{7, PrioClock, 1}, 1},
		{head{7, -1, 9}, head{7, 1, 1}, 1},
		{head{7, PrioLink, 9}, head{7, PrioLate, 1}, 1},
		{head{7, PrioClock, 9}, head{7, PrioLate, 1}, 1},
		{head{7, math.MinInt32, 9}, head{7, math.MaxInt32, 1}, 1},
		{head{7, math.MinInt32, 9}, head{7, -7, 1}, 1},
		{head{7, -7, 3}, head{7, -7, 4}, 2},
		{head{7, PrioLate, 3}, head{7, PrioLate, 4}, 2},
		{head{7, PrioLink, 0}, head{7, PrioLink, 1 << 63}, 2},
		{head{7, PrioLink, 1<<63 - 1}, head{7, PrioLink, ^uint64(0)}, 2},
	}
	var decided [3]int
	for _, c := range cases {
		a := &Lane{at: c.a.at, prio: c.a.prio, seq: c.a.seq}
		b := &Lane{at: c.b.at, prio: c.b.prio, seq: c.b.seq}
		if !a.before(b.at, b.prio, b.seq) || b.before(a.at, a.prio, a.seq) {
			t.Fatalf("case %+v: a must precede b under before", c)
		}
		if got := precedes(a, b); got != 1 {
			t.Errorf("precedes(%+v, %+v) = %d, want 1", c.a, c.b, got)
		}
		if got := precedes(b, a); got != 0 {
			t.Errorf("precedes(%+v, %+v) = %d, want 0", c.b, c.a, got)
		}
		if w := keyWord(a, b); w != c.word {
			t.Fatalf("case %+v is decided by word %d, not %d", c, w, c.word)
		}
		decided[c.word]++
	}
	if got, want := decided, [3]int{3, 6, 4}; got != want {
		t.Fatalf("cases per deciding word %v, want %v", got, want)
	}
}

// sameTimeScenario runs many lanes, spread over priorities from the int32
// extremes through a negative one to PrioLate, whose entries pile up on a
// few shared instants, so same-time heads are ordered by priority and,
// within a priority, by sequence. It returns the dispatch log and, for
// the real lanes, how often each word of the dispatch key told apart two
// sibling lanes of the lane heap, counted at every dispatch.
func sameTimeScenario(seed uint64, heapOnly bool) (log []string, decided [3]int) {
	e := NewEngine()
	rng := NewRNG(seed)
	prios := []Priority{math.MinInt32, -7, PrioClock, PrioLink, PrioLate, math.MaxInt32}
	real := make([]*Lane, 48+rng.Intn(32))
	lanes := make([]orderedLane, len(real))
	newest := make([]Time, len(real))
	for i := range lanes {
		prio, label := prios[rng.Intn(len(prios))], fmt.Sprintf("lane%d", i)
		if heapOnly {
			lanes[i] = &heapLane{e: e, prio: prio, label: label}
		} else {
			real[i] = &Lane{}
			real[i].Init(e, prio, label)
			lanes[i] = real[i]
		}
	}
	budget := 4000
	var push func(li int)
	handler := func(li int) Handler {
		return func(p any) {
			log = append(log, fmt.Sprintf("%d lane%d %v", e.now, li, p))
			if !heapOnly {
				h := e.lanes
				for c := 1; c+1 < len(h); c += 2 {
					decided[keyWord(h[c], h[c+1])]++
				}
			}
			if budget--; budget > 0 {
				push(li)
				if rng.Intn(3) == 0 {
					push(rng.Intn(len(lanes)))
				}
			}
		}
	}
	pushes := 0
	push = func(li int) {
		// Entries land on multiples of 10, most of them shared by many
		// lanes: at the lane's newest instant or the next one or two.
		t := max(e.now/10*10, newest[li]) + 10*Time(rng.Intn(3))
		newest[li] = t
		pushes++
		lanes[li].ScheduleAt(t, handler(li), pushes)
	}
	for li := range lanes {
		push(li)
		push(li)
	}
	e.RunAll()
	return log, decided
}

// TestLaneHeapSameTimeOrder holds the lane heap to the all-heap order when
// most heads tie on time: dispatch must fall back on priority, negative
// ones and PrioLate included, and then on sequence, and every word of the
// dispatch key must tell sibling lanes apart many times.
func TestLaneHeapSameTimeOrder(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		want, _ := sameTimeScenario(seed, true)
		got, decided := sameTimeScenario(seed, false)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("seed %d: dispatch log diverges from the all-heap run at line %d:\n got %s\nwant %s",
				seed, i, at(got, i), at(want, i))
		}
		if len(want) < 4000 {
			t.Fatalf("seed %d: only %d dispatches", seed, len(want))
		}
		for w, n := range decided {
			if n < 100 {
				t.Fatalf("seed %d: word %d of the key told siblings apart %d times, want >= 100 (%v)", seed, w, n, decided)
			}
		}
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

// reservedOwner owns the entries a test reserves, as a NIC owns its uncut
// packets: it counts them pending and forgets them on restore.
type reservedOwner struct{ held int }

func (o *reservedOwner) SaveState(enc *Encoder)       { enc.I64(int64(o.held)) }
func (o *reservedOwner) LoadState(dec *Decoder) error { dec.I64(); o.held = 0; return dec.Err() }
func (o *reservedOwner) PendingOwned() int            { return o.held }

// TestLaneReservedEntries checks the reserve-now, schedule-later
// primitive: reserved entries count pending from ReserveSeqs on, go on
// their lane without being counted again, order by their reserved numbers
// against events scheduled after the reservation, and are dropped by
// Restore; an entry that undercuts its lane's tail, or uses a number never
// reserved, panics.
func TestLaneReservedEntries(t *testing.T) {
	e := NewEngine()
	e.EnableSnapshots()
	owner := &reservedOwner{}
	e.RegisterCheckpoint("owner", owner)
	var l Lane
	l.Init(e, PrioLink, "l")
	var got []string
	rec := func(p any) { got = append(got, fmt.Sprintf("%d:%v", e.Now(), p)) }

	first := e.ReserveSeqs(3)
	owner.held = 3
	if e.Pending() != 3 || e.NextSeq() != first+3 {
		t.Fatalf("after reserving 3: pending %d next seq %d, want 3 and %d", e.Pending(), e.NextSeq(), first+3)
	}
	var snap Encoder
	if err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	// An event scheduled after the reservation, at the reserved entries'
	// time: every reserved entry precedes it, including one put on the
	// lane only once the first has run.
	e.ScheduleAt(10, PrioLink, rec, "late")
	var next func(any)
	seq := first
	next = func(p any) {
		rec(p)
		owner.held--
		if seq++; seq < first+3 {
			l.ScheduleReserved(10, seq, next, seq-first)
		}
	}
	l.ScheduleReserved(10, first, next, 0)
	if e.Pending() != 4 || l.n != 1 {
		t.Fatalf("one reserved entry on the lane: pending %d lane %d, want 4 and 1", e.Pending(), l.n)
	}
	e.RunAll()
	if want := "[10:0 10:1 10:2 10:late]"; fmt.Sprint(got) != want {
		t.Fatalf("dispatch order %v, want %s", got, want)
	}
	if e.Pending() != 0 || e.PeakPending() != 4 || e.Handled() != 4 {
		t.Fatalf("pending %d peak %d handled %d, want 0 4 4", e.Pending(), e.PeakPending(), e.Handled())
	}

	// Restore drops reservations: the snapshot was cut with three
	// reserved, its owner re-creates none of them, and the accounting
	// must still balance.
	e.ReserveSeqs(2)
	if err := e.Restore(NewDecoder(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 || e.NextSeq() != first+3 {
		t.Fatalf("after restore: pending %d next seq %d, want 0 and %d", e.Pending(), e.NextSeq(), first+3)
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	r := e.ReserveSeqs(2)
	l.ScheduleReserved(50, r, rec, nil)
	mustPanic("an entry undercutting the lane's tail", func() { l.ScheduleReserved(40, r+1, rec, nil) })
	mustPanic("an entry under a number never reserved", func() { l.ScheduleReserved(60, r+2, rec, nil) })
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

// BenchmarkLaneDispatch is the lane path's steady state: lanes=N lanes,
// each holding four self-rescheduling entries at its own period, so every
// dispatch takes the top of an N-lane heap against an empty event heap,
// appends the entry back at its lane's tail, moves the next entry up from
// the ring and sinks the lane to its new head's place. lanes=4 is a node's
// handful of busy producers, lanes=256 a network's NICs and links.
// ns/op is per dispatched event.
func BenchmarkLaneDispatch(b *testing.B) {
	for _, nl := range []int{4, manyLanes} {
		b.Run(fmt.Sprintf("lanes=%d", nl), func(b *testing.B) {
			e := NewEngine()
			lanes := make([]Lane, nl)
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
		})
	}
}
