package sim

// Handler consumes an event payload when its scheduled time arrives.
type Handler func(payload any)

// Priority orders events that share a timestamp. Lower values run first.
// The bands below keep common orderings readable at call sites; any int32
// is legal.
type Priority int32

const (
	// PrioClock is the default priority of clock ticks.
	PrioClock Priority = 0
	// PrioLink is the default priority of link deliveries; links deliver
	// after clock edges of the same timestamp, modelling registration at
	// the receiving clock boundary.
	PrioLink Priority = 100
	// PrioLate runs after all normal work at a timestamp (e.g. stat
	// sampling).
	PrioLate Priority = 1 << 20
)

// event is a scheduled handler invocation. Events are ordered by
// (time, priority, sequence); sequence is the global insertion counter, so
// ties are broken deterministically in schedule order. label carries the
// component/link attribution for the tracer; events scheduled from inside a
// handler inherit the running event's label unless one is given explicitly.
type event struct {
	time    Time
	prio    Priority
	seq     uint64
	fn      Handler
	payload any
	label   string
}

func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events. It is hand-rolled rather than
// built on container/heap to avoid the interface-call overhead on the
// simulator's hottest path.
type eventQueue struct {
	a []*event
}

func (q *eventQueue) Len() int { return len(q.a) }

func (q *eventQueue) Push(e *event) {
	q.a = append(q.a, e)
	q.up(len(q.a) - 1)
}

// Peek returns the earliest event without removing it, or nil when empty.
func (q *eventQueue) Peek() *event {
	if len(q.a) == 0 {
		return nil
	}
	return q.a[0]
}

// topTime returns the earliest event's timestamp, TimeInfinity when empty.
func (q *eventQueue) topTime() Time {
	if len(q.a) == 0 {
		return TimeInfinity
	}
	return q.a[0].time
}

// Pop removes and returns the earliest event, or nil when empty.
func (q *eventQueue) Pop() *event {
	n := len(q.a)
	if n == 0 {
		return nil
	}
	top := q.a[0]
	last := q.a[n-1]
	q.a[n-1] = nil
	q.a = q.a[:n-1]
	if n > 1 {
		q.a[0] = last
		q.down(0)
	}
	return top
}

func (q *eventQueue) up(i int) {
	e := q.a[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q.a[p]) {
			break
		}
		q.a[i] = q.a[p]
		i = p
	}
	q.a[i] = e
}

func (q *eventQueue) down(i int) {
	e := q.a[i]
	n := len(q.a)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && q.a[r].before(q.a[l]) {
			c = r
		}
		if !q.a[c].before(e) {
			break
		}
		q.a[i] = q.a[c]
		i = c
	}
	q.a[i] = e
}
