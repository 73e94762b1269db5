package sim

import "hypatia/internal/check"

// This file is the engine's pending-event set over a slab of event records:
// a sorted run and a 4-ary min-heap, both of 16-byte (time, record) slots,
// with the receives a device has in flight waiting in a FIFO behind the one
// that sits in the run or the heap. A packet in flight lives inside the
// record of its next event: the record travels with it from hop to hop
// (Network.forward re-links the record it popped) and returns to the free
// chain only when the journey ends.
//
// Why a FIFO per device: a device serializes one packet at a time, and within
// a position bucket the propagation delay toward a given target is constant,
// so the arrivals one device produces are already in time order — a link at
// line rate holds tens of them in flight, and with departures fixed at
// enqueue (network.go) its whole queue's besides. Only the earliest needs to
// compete; popping it inserts its successor. The completions of a device's
// observed transmissions are a second such sequence and ride a second FIFO
// (Network.txFIFO). An event that does not follow its FIFO's tail in
// canonical order (the GSL target changed, a position-bucket edge shortened
// the delay) is inserted as a plain event, as are closures and installs.
// Either way the pop order is the canonical (at, owner, kind, key) order:
// every event's key is unique among those of its (at, owner, kind), so it is
// a strict total order and any correct priority queue pops the same
// sequence.
//
// Why a sorted run beside the heap: everything pending lies within about one
// serialization time, so a saturated device's next arrival, or a pacing
// timer's next arm, lands behind every other pending event, and the pops
// follow a rotation. An insert that follows the run's back (by at most
// runSlack) is appended to it, a ring in canonical order; the rest go to the
// heap, and pop takes the earlier of the run's front and the heap's root.
// On the Fig 2 UDP cell the run serves 95 % of the pops and the heap holds
// ~70 slots where it held ~700; on the TCP cell, a quarter of them
// (DESIGN.md, "Event queue").
//
// Why a paged slab, and why the packet rides in its record: the records
// live in fixed pages, allocated one at a time as the pending set first
// reaches them and never copied, so a record keeps its address for the
// queue's life and growing the slab costs one page; and a hop reads and
// writes one record, where a packet kept in a pool of its own is a second
// cold line per hop (DESIGN.md, "Event records").
//
// Why pop prefetches: the earlier of the run's front and the heap's root
// after a pop is, in all but a handful of pops a run, the next record popped
// (an insert that takes the minimum first is counted, Simulator.Work), so pop
// starts both of its cache lines on their way into cache, and the loop's
// next pop and hop find them there. When the run supplies it, the run's
// second record, usually the event after it, is fetched too.

// recPageLen records make a page: 1024 of 128 bytes are 128 KiB, exactly
// sixteen 8 KiB runtime pages, so the allocator hands a page out page-aligned
// and every record starts on a cache line. rec reaches record i at page
// i>>recPageShift, entry i&recPageMask.
const (
	recPageShift = 10
	recPageLen   = 1 << recPageShift
	recPageMask  = recPageLen - 1
)

// heapRoot is the index of the heap's root slot. The three slots before it
// are padding: children of slot i sit at 4i-8 .. 4i-5, so every sibling group
// starts at a multiple of four slots and fills exactly one 64-byte cache line
// (the allocator aligns a slice of a kilobyte or more to at least that).
const heapRoot = 3

// firstChild and parent are the heap's index arithmetic under that padding.
func firstChild(i int) int { return 4*i - 8 }
func parent(i int) int     { return i/4 + 2 }

// slot is one heap or run entry: the event's time, which decides nearly
// every comparison, and the slab index of its record, consulted only on
// ties.
type slot struct {
	at  Time
	rec int32
}

// record is one slab entry: an event and, for evReceive and evTransmitDone,
// the packet it carries (stale in other records). src is the FIFO the event
// rides, or -1 for a plain event; next links a FIFO-held record to its
// successor and a free record to the next free one, 0 ending either chain
// (slab index 0 is never handed out). succAt is the time of the FIFO
// successor, written by linkFlight when it links one behind this record, so
// that pop promotes the successor without reading its record.
//
// Everything the queue reads — the event's order key, src, next and succAt
// — lies in the first 48 bytes, and a record is 128: a page is 128 KiB, so
// every record is two aligned cache lines, and a pop or a tie touches only
// the first (TestPageElementsFillWholePages). The packet fills the rest. The
// prefetch at the end of pop fetches exactly those two lines.
//
// A record is free, pending (in the run, the heap or a FIFO), or taken: handed
// out by take or pop and neither linked nor released yet — a packet being
// forwarded, a closure's record between its pop and its release. Only pending
// records count in len.
type record struct {
	event
	src    int32
	next   int32
	succAt Time
	pkt    Packet
}

// eventQueue is the pending-event set. The zero value is an empty queue.
type eventQueue struct {
	heap  []slot                // heap[heapRoot:] is the 4-ary heap; empty or padded
	pages []*[recPageLen]record // the slab; record 0 is the nil record
	used  int32                 // highest record index ever handed out
	free  int32                 // head of the free-record chain
	n     int                   // pending events: heap and run entries plus FIFO-held records
	// run is a ring of slots in canonical order, its front at run[head] and
	// runLen long; devices sizes it, and a zero-value queue has none and
	// admits nothing to it.
	run          []slot
	head, runLen int
	back         slot // the run's last slot, while it has one
	// fromRun says which of the run's front and the heap's root is the
	// earliest pending event, whenever one is pending: pop decides it after
	// each removal and an insert that takes the minimum updates it.
	fromRun bool
	// tails[f] is the slab index of the last event in FIFO f, or 0 when f has
	// nothing pending; the FIFO's first record is the one in the run or the
	// heap. Sized by devices().
	tails []int32
	// What linkFlight did with each event it was handed (Simulator.Work):
	// inserted as an empty FIFO's head, linked behind a FIFO's tail, or
	// inserted as a plain event after all.
	heads, behind, fallbacks int
	// rootPushes counts the inserts that took the queue's minimum, each one
	// displacing the record the last pop prefetched, and runPops the pops
	// the run served (Simulator.Work).
	rootPushes, runPops int
}

// devices sizes the FIFO state and the run; records may then be linked
// through linkFlight for FIFO handles below n (Network.numFIFOs: two per
// device).
func (q *eventQueue) devices(n int) {
	q.tails = make([]int32, n)
	q.run = make([]slot, runSlots)
}

// runSlots sizes the run's ring: 16 KiB, a power of two. The rotation of the
// Fig 2 UDP cell peaks at 667 slots; a ring with a slot for each of K1's
// 11 760 FIFOs read 0.25 MB more peak RSS, since the front walks the whole
// ring. A full run turns inserts away to the heap.
const runSlots = 1024

func (q *eventQueue) len() int { return q.n }

// rec returns slab record i.
func (q *eventQueue) rec(i int32) *record {
	return &q.pages[i>>recPageShift][i&recPageMask]
}

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
	return a.key < b.key
}

// slotBefore orders two slots: by time, and through their records when the
// times tie. Inlined, it costs a call only on a tie.
func (q *eventQueue) slotBefore(a, b slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return q.tieBefore(a.rec, b.rec)
}

// tieBefore orders records i and j, whose times tie. It is kept out of line
// so that slotBefore stays small enough to inline.
//
//go:noinline
func (q *eventQueue) tieBefore(i, j int32) bool {
	return q.rec(i).before(&q.rec(j).event)
}

// take hands out a free slab record, not yet pending, for the caller to fill
// and then link or release. With the free chain empty it hands out the next
// record never used, whose zeroed link leaves the chain empty; the first page
// also pads the heap. take is kept small enough to inline (DESIGN.md, "Event
// records"), which is why the callers store the event.
func (q *eventQueue) take() (int32, *record) {
	i := q.free
	if i == 0 {
		q.used++
		i = q.used
		if int(i>>recPageShift) == len(q.pages) {
			if len(q.pages) == 0 {
				q.heap = make([]slot, heapRoot)
			}
			q.pages = append(q.pages, new([recPageLen]record))
		}
	}
	r := q.rec(i)
	q.free = r.next
	return i, r
}

// release returns taken record i to the free chain, dropping its references
// for the GC. Builds with the hypatia_checks tag poison its packet (ID ^0,
// Hops -1, Size -1), so a *Packet kept past its callback fails loudly.
func (q *eventQueue) release(i int32, r *record) {
	r.fn, r.pkt.Payload = nil, nil
	if check.Enabled {
		r.pkt.ID, r.pkt.Hops, r.pkt.Size = ^uint64(0), -1, -1
	}
	r.next = q.free
	q.free = i
}

// link makes taken record i, its event stored, pending as a plain event.
func (q *eventQueue) link(i int32, r *record) {
	r.src, r.next = -1, 0
	q.n++
	q.insert(slot{at: r.at, rec: i})
}

// linkFlight makes taken record i, its event stored, pending as the next
// event of one of a device's ascending sequences — the arrivals it produces,
// or its observed transmit completions: in that FIFO when the event follows
// the FIFO's tail in canonical order (it becomes the head, and is inserted,
// when the FIFO is empty), as a plain event otherwise.
func (q *eventQueue) linkFlight(dev, i int32, r *record) {
	t := q.tails[dev]
	if t == 0 {
		r.src, r.next = dev, 0
		q.tails[dev] = i
		q.n++
		q.heads++
		q.insert(slot{at: r.at, rec: i})
		return
	}
	if tail := q.rec(t); tail.before(&r.event) {
		r.src, r.next = dev, 0
		tail.next, tail.succAt = i, r.at
		q.tails[dev] = i
		q.n++
		q.behind++
		return
	}
	q.fallbacks++
	q.link(i, r)
}

// push adds a plain event in a record of its own: closures and installs,
// which carry no packet.
func (q *eventQueue) push(e event) {
	i, r := q.take()
	r.event = e
	q.link(i, r)
}

// runSlack is how far past the run's back an event may lie and still join
// the run. The run serves the rotation, in which each insert lands a little
// behind everything pending; the bound turns away an event well ahead of
// it (a timer's deadline, a scheduled install, a device's next arrival after
// an idle gap), which at the back would turn every later insert away until
// it popped. 20 µs also admits TCP's ACK trains, whose 40-byte ACKs are
// 12.8 µs apart at 25 Mbit/s. DESIGN.md ("Event queue") has the sweep that
// chose it.
const runSlack = 20 * Microsecond

// joinRun appends slot x to the run when the run has room and is empty, or
// x follows its back in canonical order by at most runSlack, and reports
// whether it did. Its test of the time inlines, so a slot turned away on
// time alone costs no call.
func (q *eventQueue) joinRun(x slot) bool {
	return (q.runLen == 0 || uint64(x.at-q.back.at) <= uint64(runSlack)) && q.appendRun(x)
}

// appendRun is the rest of joinRun: x joins unless the run is full, or x's
// time ties with the back's and its record does not follow the back's.
//
//go:noinline
func (q *eventQueue) appendRun(x slot) bool {
	if q.runLen == len(q.run) || q.runLen != 0 && x.at == q.back.at && !q.tieBefore(q.back.rec, x.rec) {
		return false
	}
	q.run[(q.head+q.runLen)&(len(q.run)-1)] = x
	q.runLen++
	q.back = x
	return true
}

// insert makes slot x pending, in the run when it joins it and in the heap
// otherwise. An insert that takes the queue's minimum (an append to an empty
// run that precedes the heap's root, or a heap push that reaches the root
// and precedes the run's front) is counted and recorded in fromRun.
func (q *eventQueue) insert(x slot) {
	if q.joinRun(x) {
		if q.runLen == 1 && (len(q.heap) <= heapRoot || q.slotBefore(x, q.heap[heapRoot])) {
			q.fromRun = true
			q.rootPushes++
		}
		return
	}
	q.heap = append(q.heap, x)
	if q.rise(len(q.heap)-1, x) == heapRoot && (q.runLen == 0 || q.slotBefore(x, q.run[q.head])) {
		q.fromRun = false
		q.rootPushes++
	}
}

// pop removes the earliest event and returns its record, taken: the caller
// links it again (a packet moving on) or releases it. When nothing is
// pending, or the earliest event lies after until, it returns a nil record
// and removes nothing.
//
// The earliest event is the run's front or the heap's root, whichever
// fromRun names. When it heads a FIFO with a successor, the successor is
// inserted in its place: its time comes from the popped record's succAt, so
// its own record stays unread until it is popped in turn (or a tie consults
// it). A successor that stays out of the run takes the vacated heap root in
// the same sift-down that a plain removal spends on the last leaf. Last, pop
// settles which event is next and prefetches both lines of its record —
// and, when the run supplies it, of the run's second record too — so they
// are in cache by the time the caller has handled this event.
func (q *eventQueue) pop(until Time) (int32, *record) {
	if q.n == 0 {
		return 0, nil
	}
	var top int32
	fromRun := q.fromRun
	if fromRun {
		x := q.run[q.head]
		if x.at > until {
			return 0, nil
		}
		top = x.rec
		q.head = (q.head + 1) & (len(q.run) - 1)
		q.runLen--
		q.runPops++
	} else {
		x := q.heap[heapRoot]
		if x.at > until {
			return 0, nil
		}
		top = x.rec
	}
	r := q.rec(top)
	nx := r.next
	if r.src >= 0 && nx == 0 {
		if check.Enabled {
			check.Assert(q.tails[r.src] == top, "FIFO %d: popped its only pending event %d but its tail is %d", r.src, top, q.tails[r.src])
		}
		q.tails[r.src] = 0
	}
	q.n--

	if nx != 0 {
		if check.Enabled {
			succ := q.rec(nx)
			check.Assert(r.src >= 0 && succ.src == r.src && q.tails[r.src] != 0 && r.before(&succ.event),
				"FIFO %d: successor %d (src %d, at %v) does not follow head %d (at %v)", r.src, nx, succ.src, succ.at, top, r.at)
			check.Assert(r.succAt == succ.at, "FIFO %d: head %d caches its successor's time as %d ns, successor %d is at %d ns", r.src, top, r.succAt, nx, succ.at)
		}
		x := slot{at: r.succAt, rec: nx}
		switch {
		case q.joinRun(x):
			if !fromRun {
				q.dropRoot()
			}
		case fromRun:
			q.heap = append(q.heap, x)
			q.rise(len(q.heap)-1, x)
		default:
			q.down(x)
		}
	} else if !fromRun {
		q.dropRoot()
	}

	if q.runLen > 0 {
		f := q.run[q.head]
		if len(q.heap) <= heapRoot || q.slotBefore(f, q.heap[heapRoot]) {
			q.fromRun = true
			prefetch(q.rec(f.rec))
			if q.runLen > 1 {
				prefetch(q.rec(q.run[(q.head+1)&(len(q.run)-1)].rec))
			}
			return top, r
		}
	}
	q.fromRun = false
	if len(q.heap) > heapRoot {
		prefetch(q.rec(q.heap[heapRoot].rec))
	}
	return top, r
}

// dropRoot removes the heap's root, refilling it with the last leaf.
func (q *eventQueue) dropRoot() {
	last := len(q.heap) - 1
	x := q.heap[last]
	q.heap = q.heap[:last]
	if last > heapRoot {
		q.down(x)
	}
}

// rise places x at hole i or above and returns where it placed it.
func (q *eventQueue) rise(i int, x slot) int {
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
	return i
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
// first in canonical order. It must be the exact comparator, because the pop
// order is the simulated outcome. It is rare where flows start at staggered
// offsets (udp_perm100: 1 150 tie groups in 10 879 551 pops, most of which
// the run serves; 41 990 with every event in the heap), and frequent where
// they start together and pace in lockstep (the same shape at 100 Mbit/s
// for 500 ms with every flow started at t = 0 and every event in the heap:
// 1 424 806 in 2 659 866 pops).
func (q *eventQueue) leastTied(g *[4]slot, m int) int {
	at := g[m].at
	for k := range g {
		if k != m && g[k].at == at && q.slotBefore(g[k], g[m]) {
			m = k
		}
	}
	return m
}

// assertConsistent walks the whole structure for the queue tests, which
// call it between operations (its assertions fire in hypatia_checks builds
// only): the heap is ordered and the run sorted in canonical order, every
// slot caching its record's time; fromRun names the earlier of the run's
// front and the heap's root; each FIFO has exactly one head across heap and
// run, is strictly ascending in canonical order, caches each record's time
// in its predecessor's succAt and ends at the recorded tail; plain records
// carry no chain; and the pending count is the heap length plus the run
// length plus the FIFO occupancy. It returns that occupancy.
func (q *eventQueue) assertConsistent() (fifoHeld int) {
	heapLen := max(len(q.heap)-heapRoot, 0)
	check.Assert(q.runLen >= 0 && q.runLen <= len(q.run) && q.head >= 0 && q.head < max(len(q.run), 1),
		"run of %d slots from %d in a ring of %d", q.runLen, q.head, len(q.run))
	if q.n == 0 {
		check.Assert(heapLen == 0 && q.runLen == 0, "empty queue with %d heap and %d run entries", heapLen, q.runLen)
		for d, t := range q.tails {
			check.Assert(t == 0, "empty queue but FIFO %d has tail %d", d, t)
		}
		return 0
	}
	slots := make([]slot, 0, heapLen+q.runLen)
	for i := heapRoot; i < len(q.heap); i++ {
		if i > heapRoot {
			check.Assert(!q.slotBefore(q.heap[i], q.heap[parent(i)]), "heap slot %d sorts before its parent", i)
		}
		slots = append(slots, q.heap[i])
	}
	for k := 0; k < q.runLen; k++ {
		x := q.run[(q.head+k)&(len(q.run)-1)]
		if k > 0 {
			check.Assert(q.slotBefore(slots[len(slots)-1], x), "run slot %d does not follow slot %d", k, k-1)
		}
		slots = append(slots, x)
	}
	if q.runLen > 0 {
		check.Assert(q.back == slots[len(slots)-1], "the run's back is cached as %v, its last slot is %v", q.back, slots[len(slots)-1])
	}
	if q.runLen > 0 && heapLen > 0 {
		runFirst := q.slotBefore(q.run[q.head], q.heap[heapRoot])
		check.Assert(q.fromRun == runFirst, "fromRun is %v, but the run's front sorts first: %v", q.fromRun, runFirst)
	} else {
		check.Assert(q.fromRun == (q.runLen > 0), "fromRun is %v with %d heap and %d run entries", q.fromRun, heapLen, q.runLen)
	}
	heads := make([]bool, len(q.tails))
	for _, s := range slots {
		r := q.rec(s.rec)
		check.Assert(s.at == r.at, "slot of record %d caches time %v of a record at %v", s.rec, s.at, r.at)
		if r.src < 0 {
			check.Assert(r.next == 0, "plain record %d is chained to %d", s.rec, r.next)
			continue
		}
		check.Assert(!heads[r.src], "FIFO %d has two heads in the heap and run", r.src)
		heads[r.src] = true
		last := s.rec
		for j := r.next; j != 0; j = q.rec(j).next {
			check.Assert(q.rec(j).src == r.src && q.rec(last).before(&q.rec(j).event),
				"FIFO %d: record %d does not follow %d", r.src, j, last)
			check.Assert(q.rec(last).succAt == q.rec(j).at,
				"FIFO %d: record %d caches its successor's time as %d ns, successor %d is at %d ns", r.src, last, q.rec(last).succAt, j, q.rec(j).at)
			last = j
			fifoHeld++
		}
		check.Assert(q.tails[r.src] == last, "FIFO %d ends at %d, tail says %d", r.src, last, q.tails[r.src])
	}
	for d, t := range q.tails {
		check.Assert(t == 0 || heads[d], "FIFO %d has tail %d and no head in the heap or run", d, t)
	}
	check.Assert(q.n == heapLen+q.runLen+fifoHeld, "%d events pending, but %d in the heap, %d in the run and %d in FIFOs", q.n, heapLen, q.runLen, fifoHeld)
	return fifoHeld
}
