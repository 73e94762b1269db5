package sim

import "hypatia/internal/check"

// This file is the engine's pending-event set: a 4-ary min-heap of 16-byte
// (time, record) slots over a slab of event records, in which the receives a
// device has in flight wait in a FIFO behind the one that sits in the heap.
//
// Why a FIFO per device: a device serializes one packet at a time, and within
// a position bucket the propagation delay toward a given target is constant,
// so the arrivals one device produces are already in time order — a link at
// line rate holds tens of them in flight, and with departures fixed at
// enqueue (network.go) its whole queue's besides. Only the earliest needs to
// compete in the heap; popping it promotes its successor with one sift-down
// from the root. The completions of a device's observed transmissions are a
// second such sequence and ride a second FIFO (Network.txFIFO). An event that
// does not follow its FIFO's tail in canonical order (the GSL target changed,
// a position-bucket edge shortened the delay) goes into the heap as a plain
// event, as do closures, installs and cross-shard handoffs. Either way the pop
// order is the canonical (at, owner, kind, key, seq) order: it is a strict
// total order, so any correct priority queue pops the same sequence.

// heapRoot is the index of the heap's root slot. The three slots before it
// are padding: children of slot i sit at 4i-8 .. 4i-5, so every sibling group
// starts at a multiple of four slots and fills exactly one 64-byte cache line
// (the allocator aligns a slice of a kilobyte or more to at least that).
const heapRoot = 3

// firstChild and parent are the heap's index arithmetic under that padding.
func firstChild(i int) int { return 4*i - 8 }
func parent(i int) int     { return i/4 + 2 }

// slot is one heap entry: the event's time, which decides nearly every
// comparison, and the slab index of its record, consulted only on ties.
type slot struct {
	at  Time
	rec int32
}

// record is one slab entry. src is the FIFO the event rides, or -1 for a
// plain event; next links a FIFO-held record to
// its successor and a free record to the next free one, 0 ending either chain
// (slab index 0 is never handed out).
type record struct {
	event
	src  int32
	next int32
}

// eventQueue is the pending-event set. The zero value is an empty queue.
type eventQueue struct {
	heap []slot   // heap[heapRoot:] is the 4-ary heap; empty or padded
	recs []record // the slab; recs[0] is the nil record
	free int32    // head of the free-record chain
	n    int      // pending events: heap entries plus FIFO-held records
	// tails[f] is the slab index of the last event in FIFO f, or 0 when f has
	// nothing pending; the FIFO's first record is the one in the heap. Sized
	// by devices().
	tails []int32
}

// devices sizes the FIFO state; events may then be pushed through pushFlight
// for FIFO handles below n (Network.numFIFOs: two per device).
func (q *eventQueue) devices(n int) { q.tails = make([]int32, n) }

func (q *eventQueue) len() int { return q.n }

// nextAt returns the time of the earliest pending event; the queue must not
// be empty. Every non-empty FIFO has its head in the heap, so the root is the
// earliest event overall.
func (q *eventQueue) nextAt() Time { return q.heap[heapRoot].at }

// before is the canonical event order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// slotBefore orders two heap slots: by time, and through their records when
// the times tie.
func (q *eventQueue) slotBefore(a, b slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return q.recs[a.rec].before(&q.recs[b.rec].event)
}

// alloc stores e in a free slab record and counts it pending.
func (q *eventQueue) alloc(e event, src int32) int32 {
	i := q.free
	if i != 0 {
		q.free = q.recs[i].next
	} else {
		if len(q.recs) == 0 {
			q.recs = append(q.recs, record{})
			q.heap = append(q.heap[:0], slot{}, slot{}, slot{})
		}
		i = int32(len(q.recs))
		q.recs = append(q.recs, record{})
	}
	q.recs[i] = record{event: e, src: src}
	q.n++
	return i
}

// push adds a plain event.
func (q *eventQueue) push(e event) {
	q.up(slot{at: e.at, rec: q.alloc(e, -1)})
}

// pushFlight adds an event of one of a device's ascending sequences — the
// arrivals it produces, or its observed transmit completions: to that FIFO
// when it follows the FIFO's tail in canonical order (it becomes the head,
// and enters the heap, when the FIFO is empty), to the heap as a plain event
// otherwise.
func (q *eventQueue) pushFlight(dev int32, e event) {
	t := q.tails[dev]
	switch {
	case t == 0:
		i := q.alloc(e, dev)
		q.tails[dev] = i
		q.up(slot{at: e.at, rec: i})
	case q.recs[t].before(&e):
		i := q.alloc(e, dev)
		q.recs[t].next = i
		q.tails[dev] = i
	default:
		q.push(e)
	}
}

// pop removes and returns the earliest event; the queue must not be empty.
// When the event heads a FIFO with a successor, the successor takes the root
// in the same sift-down that a plain removal spends on the last leaf.
func (q *eventQueue) pop() event {
	top := q.heap[heapRoot].rec
	r := &q.recs[top]
	e := r.event
	nx := r.next
	if r.src >= 0 && nx == 0 {
		if check.Enabled {
			check.Assert(q.tails[r.src] == top, "FIFO %d: popped its only pending event %d but its tail is %d", r.src, top, q.tails[r.src])
		}
		q.tails[r.src] = 0
	}
	r.pkt, r.fn = nil, nil // drop the references for the GC
	r.next = q.free
	q.free = top
	q.n--

	if nx != 0 {
		succ := &q.recs[nx]
		if check.Enabled {
			check.Assert(r.src >= 0 && succ.src == r.src && q.tails[r.src] != 0 && e.before(&succ.event),
				"FIFO %d: successor %d (src %d, at %v) does not follow head %d (at %v)", r.src, nx, succ.src, succ.at, top, e.at)
		}
		q.down(slot{at: succ.at, rec: nx})
		return e
	}
	last := len(q.heap) - 1
	x := q.heap[last]
	q.heap = q.heap[:last]
	if last > heapRoot {
		q.down(x)
	}
	return e
}

// up appends x to the heap and sifts it toward the root, moving parents into
// the hole rather than swapping.
func (q *eventQueue) up(x slot) {
	q.heap = append(q.heap, x)
	q.rise(len(q.heap)-1, x)
}

// rise places x at hole i or above.
func (q *eventQueue) rise(i int, x slot) {
	h := q.heap
	for i > heapRoot {
		p := parent(i)
		if !q.slotBefore(x, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// down refills the root, whose occupant has been taken, with x: the hole
// walks to a leaf along the least children without looking at x (it nearly
// always belongs near the bottom — x is the last leaf, or an arrival a full
// serialization time after the one just popped), then x rises from there.
func (q *eventQueue) down(x slot) {
	h := q.heap
	n := len(h)
	i := heapRoot
	for {
		c := firstChild(i)
		if c+4 > n {
			if c < n { // the last, partial sibling group
				m := c
				for k := c + 1; k < n; k++ {
					if q.slotBefore(h[k], h[m]) {
						m = k
					}
				}
				h[i] = h[m]
				i = m
			}
			break
		}
		g := (*[4]slot)(h[c : c+4])
		m, tied := least4(g)
		if tied {
			m = q.leastTied(g, m)
		}
		h[i] = g[m]
		i = c + m
	}
	q.rise(i, x)
}

// least4 returns which of four sibling slots has the least time, and whether
// that time occurs more than once among them. It is a tournament of
// conditional moves, and deliberately its own function: inlined into down's
// loop by hand, the compiler runs out of registers and goes back to branches,
// which mispredict on every level of the heap.
func least4(g *[4]slot) (m int, tied bool) {
	a0, a1, a2, a3 := g[0].at, g[1].at, g[2].at, g[3].at
	m01, a01 := 0, a0
	if a1 < a0 {
		m01, a01 = 1, a1
	}
	m23, a23 := 2, a2
	if a3 < a2 {
		m23, a23 = 3, a3
	}
	m, am := m01, a01
	if a23 < a01 {
		m, am = m23, a23
	}
	ties := 0
	if a0 == am {
		ties++
	}
	if a1 == am {
		ties++
	}
	if a2 == am {
		ties++
	}
	if a3 == am {
		ties++
	}
	return m, ties > 1
}

// leastTied is down's tie path: among the siblings at the time of g[m], the
// first in canonical order. Ties are common enough (about one group in seven
// on the Fig 2 UDP workload: a station's pacing closure and its device's
// transmit completion share instants) that this has to be the exact
// comparator, not an approximation.
func (q *eventQueue) leastTied(g *[4]slot, m int) int {
	at := g[m].at
	for k := range g {
		if k != m && g[k].at == at && q.slotBefore(g[k], g[m]) {
			m = k
		}
	}
	return m
}

// takeAll empties the queue and returns every pending event, FIFO-held ones
// included, as plain records in no particular order. RunSharded uses it to
// migrate events between the root engine and the shard engines; the heap and
// slab storage is dropped.
func (q *eventQueue) takeAll() []event {
	if check.Enabled {
		q.assertConsistent()
	}
	out := make([]event, 0, q.n)
	if q.n > 0 {
		for _, s := range q.heap[heapRoot:] {
			for i := s.rec; i != 0; i = q.recs[i].next {
				out = append(out, q.recs[i].event)
			}
		}
	}
	clear(q.tails)
	*q = eventQueue{tails: q.tails}
	return out
}

// assertConsistent walks the whole structure (hypatia_checks builds only):
// the heap is ordered; each FIFO has at most one head in the heap, is
// strictly ascending in canonical order and ends at the recorded tail;
// plain records carry no chain; and the pending count is the heap length plus
// the FIFO occupancy. It returns that occupancy.
func (q *eventQueue) assertConsistent() (fifoHeld int) {
	if q.n == 0 {
		check.Assert(len(q.heap) <= heapRoot, "empty queue with %d heap entries", len(q.heap)-heapRoot)
		for d, t := range q.tails {
			check.Assert(t == 0, "empty queue but FIFO %d has tail %d", d, t)
		}
		return 0
	}
	heads := make(map[int32]bool)
	for i := heapRoot; i < len(q.heap); i++ {
		s := q.heap[i]
		r := &q.recs[s.rec]
		check.Assert(s.at == r.at, "heap slot %d caches time %v of a record at %v", i, s.at, r.at)
		if i > heapRoot {
			check.Assert(!q.slotBefore(s, q.heap[parent(i)]), "heap slot %d sorts before its parent", i)
		}
		if r.src < 0 {
			check.Assert(r.next == 0, "plain record %d is chained to %d", s.rec, r.next)
			continue
		}
		check.Assert(!heads[r.src], "FIFO %d has two heads in the heap", r.src)
		heads[r.src] = true
		last := s.rec
		for j := r.next; j != 0; j = q.recs[j].next {
			check.Assert(q.recs[j].src == r.src && q.recs[last].before(&q.recs[j].event),
				"FIFO %d: record %d does not follow %d", r.src, j, last)
			last = j
			fifoHeld++
		}
		check.Assert(q.tails[r.src] == last, "FIFO %d ends at %d, tail says %d", r.src, last, q.tails[r.src])
	}
	for d, t := range q.tails {
		check.Assert(t == 0 || heads[int32(d)], "FIFO %d has tail %d and no head in the heap", d, t)
	}
	check.Assert(q.n == len(q.heap)-heapRoot+fifoHeld, "%d events pending, but %d in the heap and %d in FIFOs", q.n, len(q.heap)-heapRoot, fifoHeld)
	return fifoHeld
}
