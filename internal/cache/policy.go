package cache

import (
	"container/heap"
	"container/list"
	"fmt"
	"strings"
)

// PolicyType identifies a cache eviction policy.
type PolicyType int

const (
	// FIFO evicts in insertion order, ignoring reuse.
	FIFO PolicyType = iota
	// LRU evicts the least recently used key.
	LRU
	// LFU evicts the least frequently used key (ties broken toward the
	// least recently promoted).
	LFU
	// TinyLFU keeps LRU residency order but guards admission with a
	// doorkeeper + count-min frequency sketch: a new key is only admitted
	// when its estimated access frequency is at least the current
	// victim's, so one-hit wonders cannot wash out a hot working set.
	TinyLFU
)

// String returns the flag spelling of the policy.
func (p PolicyType) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case LRU:
		return "lru"
	case LFU:
		return "lfu"
	case TinyLFU:
		return "tinylfu"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses "fifo", "lru", "lfu" or "tinylfu".
func ParsePolicy(s string) (PolicyType, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "fifo":
		return FIFO, nil
	case "", "lru":
		return LRU, nil
	case "lfu":
		return LFU, nil
	case "tinylfu", "tiny-lfu":
		return TinyLFU, nil
	}
	return LRU, fmt.Errorf("cache: unknown policy %q (want fifo, lru, lfu or tinylfu)", s)
}

// ParsePolicies parses a comma-separated policy list (for shadow sensors).
func ParsePolicies(s string) ([]PolicyType, error) {
	var out []PolicyType
	for _, part := range strings.Split(s, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		p, err := ParsePolicy(part)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// evictor is the metadata half of an eviction policy: it orders keys and
// nominates victims but never sees values. The Cache owns the key→value
// store; shadow sensors run an evictor with no store at all.
type evictor interface {
	has(key string) bool
	// add inserts a new key at the hot end.
	add(key string)
	// touch records an access to a resident key.
	touch(key string)
	remove(key string)
	// victim peeks the next eviction candidate without removing it.
	victim() (string, bool)
	len() int
}

// recorder is implemented by policies that learn from every access, hit or
// miss — TinyLFU's frequency sketch sees the full request stream, not just
// the resident subset.
type recorder interface{ record(key string) }

// admitter is implemented by policies that may refuse to cache a new key.
// admit is only consulted when admitting the key would force an eviction.
type admitter interface{ admit(candidate string) bool }

// newEvictor builds the metadata structure for a policy; capacity sizes
// TinyLFU's sketch.
func newEvictor(p PolicyType, capacity int) evictor {
	switch p {
	case FIFO:
		return &listPolicy{order: list.New(), items: map[string]*list.Element{}}
	case LFU:
		return &lfuPolicy{index: map[string]*lfuItem{}}
	case TinyLFU:
		return &tinyLFUPolicy{
			listPolicy: listPolicy{order: list.New(), items: map[string]*list.Element{}, onTouch: true},
			sketch:     newSketch(capacity),
		}
	default: // LRU
		return &listPolicy{order: list.New(), items: map[string]*list.Element{}, onTouch: true}
	}
}

// listPolicy implements FIFO (onTouch=false) and LRU (onTouch=true) over a
// doubly linked list: front is the cold end, back the hot end.
type listPolicy struct {
	order   *list.List
	items   map[string]*list.Element
	onTouch bool
}

func (p *listPolicy) has(key string) bool { _, ok := p.items[key]; return ok }

func (p *listPolicy) add(key string) {
	if _, ok := p.items[key]; ok {
		return
	}
	p.items[key] = p.order.PushBack(key)
}

func (p *listPolicy) touch(key string) {
	if e, ok := p.items[key]; ok && p.onTouch {
		p.order.MoveToBack(e)
	}
}

func (p *listPolicy) remove(key string) {
	if e, ok := p.items[key]; ok {
		p.order.Remove(e)
		delete(p.items, key)
	}
}

func (p *listPolicy) victim() (string, bool) {
	if e := p.order.Front(); e != nil {
		return e.Value.(string), true
	}
	return "", false
}

func (p *listPolicy) len() int { return len(p.items) }

// lfuPolicy orders keys by (frequency, promotion sequence) in a min-heap:
// the victim is the least frequently used key, ties broken toward the one
// that reached its count longest ago. Operations are O(log n).
type lfuPolicy struct {
	items []*lfuItem
	index map[string]*lfuItem
	seq   int64 // increases on add/touch: higher = hotter within a count
}

type lfuItem struct {
	key  string
	freq uint64
	seq  int64
	idx  int
}

func (p *lfuPolicy) Len() int { return len(p.items) }
func (p *lfuPolicy) Less(i, j int) bool {
	a, b := p.items[i], p.items[j]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.seq < b.seq
}
func (p *lfuPolicy) Swap(i, j int) {
	p.items[i], p.items[j] = p.items[j], p.items[i]
	p.items[i].idx = i
	p.items[j].idx = j
}
func (p *lfuPolicy) Push(x any) {
	it := x.(*lfuItem)
	it.idx = len(p.items)
	p.items = append(p.items, it)
}
func (p *lfuPolicy) Pop() any {
	it := p.items[len(p.items)-1]
	p.items = p.items[:len(p.items)-1]
	return it
}

func (p *lfuPolicy) init() {
	if p.index == nil {
		p.index = map[string]*lfuItem{}
	}
}

func (p *lfuPolicy) has(key string) bool { p.init(); _, ok := p.index[key]; return ok }

func (p *lfuPolicy) add(key string) {
	p.init()
	if _, ok := p.index[key]; ok {
		return
	}
	p.seq++
	it := &lfuItem{key: key, freq: 1, seq: p.seq}
	p.index[key] = it
	heap.Push(p, it)
}

func (p *lfuPolicy) touch(key string) {
	p.init()
	if it, ok := p.index[key]; ok {
		p.seq++
		it.freq++
		it.seq = p.seq
		heap.Fix(p, it.idx)
	}
}

func (p *lfuPolicy) remove(key string) {
	p.init()
	if it, ok := p.index[key]; ok {
		heap.Remove(p, it.idx)
		delete(p.index, key)
	}
}

func (p *lfuPolicy) victim() (string, bool) {
	if len(p.items) == 0 {
		return "", false
	}
	return p.items[0].key, true
}

func (p *lfuPolicy) len() int { return len(p.items) }

// tinyLFUPolicy is LRU residency plus a frequency sketch and an admission
// filter. record feeds the sketch on every access (hit or miss); admit
// compares the candidate's estimated frequency against the current LRU
// victim's and refuses keys that would displace hotter data.
type tinyLFUPolicy struct {
	listPolicy
	sketch *sketch
}

func (p *tinyLFUPolicy) record(key string) { p.sketch.record(key) }

func (p *tinyLFUPolicy) admit(candidate string) bool {
	v, ok := p.victim()
	if !ok {
		return true
	}
	return p.sketch.estimate(candidate) >= p.sketch.estimate(v)
}

func (p *tinyLFUPolicy) touch(key string) { p.listPolicy.touch(key) }
