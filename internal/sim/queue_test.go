package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// queueDrive is what one op stream exercised, so the seeded test can insist
// that the interesting paths were reached.
type queueDrive struct {
	pops       int
	relinks    int // popped receive records linked again into another FIFO
	maxPending int
	maxHeld    int // most events held in FIFOs behind their heads at once
	outOfOrder int // receives pushed earlier than their device's previous one
	fifoRefill int // receives pushed for a device whose FIFO had run empty
	pages      int // slab pages the queue reached
	reusePages int // slab pages a freed record was handed out again from

	// The sorted run's cases.
	runPops    int // pops the run served
	appends    int // inserts that joined a non-empty run
	tieAppends int // of those, at the back's time: the records decided
	tieRefused int // inserts at the back's time that the records turned away
	farBacks   int // inserts turned away by a back more than runSlack past now
	refills    int // inserts that joined a run that had drained
	runToHeap  int // FIFO successors of a run pop inserted into the heap
	heapToRun  int // FIFO successors of a heap pop that joined the run
}

// never is a pop horizon past every event.
const never = Time(math.MaxInt64)

// pushFlight adds e in a record of its own through FIFO dev.
func pushFlight(q *eventQueue, dev int32, e event) {
	i, r := q.take()
	r.event = e
	q.linkFlight(dev, i, r)
}

// driveQueue feeds an eventQueue whose run has ring slots an op stream
// through its real entry points (take, link, linkFlight, pop, release, len)
// and checks every pop against an oracle that is not a heap: the list of
// everything scheduled and not yet popped, kept sorted under the canonical
// comparator by inserting each event after every pending one it does not
// precede. Each op is two bytes — what, and with which parameters — so the
// seeded test and the fuzzer share it.
//
// A receive's record carries a packet whose ID is the low half of the event's
// key. A popped receive is released or, as the network forwards a packet,
// linked again as a receive through another device's FIFO; every pop checks
// that the record still carries its own packet and that the taken record is
// not counted pending.
func driveQueue(t *testing.T, ops []byte, ring int) queueDrive {
	t.Helper()
	const devs = 4
	// Two devices share a propagation delay, so receives pushed at one instant
	// on both tie on `at` at different owners.
	prop := [devs]Time{5000, 5000, 7000, 3000}
	delays := [...]Time{0, 0, 1, 120, 5000, 100000}
	jitter := [...]Time{0, 0, 37, -2500}

	var (
		q       eventQueue
		pending []event
		now     Time
		seq     uint64
		pktID   uint64
		lastAt  [devs]Time
		live    [devs]int // receives pending per device, by either path
		emptied [devs]bool
		reused  = map[int32]bool{}
		st      queueDrive
	)
	q.devices(devs)
	q.run = make([]slot, ring)
	drained := false // the run has held events and is empty
	// back returns the run's last slot.
	back := func() slot { return q.run[(q.head+q.runLen-1)&(len(q.run)-1)] }
	// link makes taken record i pending, through FIFO dev unless dev < 0.
	link := func(i int32, r *record, dev int32) {
		runLen, heapLen := q.runLen, len(q.heap)
		var b slot
		if runLen > 0 {
			b = back()
		}
		if dev >= 0 {
			q.linkFlight(dev, i, r)
		} else {
			q.link(i, r)
		}
		switch {
		case q.runLen > runLen && runLen == 0:
			if drained {
				st.refills++
				drained = false
			}
		case q.runLen > runLen:
			st.appends++
			if b.at == r.at {
				st.tieAppends++
			}
		case len(q.heap) > heapLen && runLen > 0 && runLen < len(q.run):
			if b.at == r.at {
				st.tieRefused++
			}
			if b.at-now > runSlack && r.at < b.at {
				st.farBacks++
			}
		}
		k := sort.Search(len(pending), func(i int) bool { return r.before(&pending[i]) })
		pending = slices.Insert(pending, k, r.event)
	}
	// sched stores e in a fresh record and links it as a plain event;
	// closures and transmit completions take the scheduling sequence as their
	// key, as the engine's closures do.
	sched := func(e event) {
		e.key = seq
		seq++
		if q.free != 0 {
			reused[q.free>>recPageShift] = true
		}
		i, r := q.take()
		r.event = e
		link(i, r, -1)
	}
	// receive links record i as the arrival of its packet from device d.
	receive := func(i int32, r *record, d int, at Time, owner int32) {
		if live[d] > 0 && at < lastAt[d] {
			st.outOfOrder++
		}
		if emptied[d] {
			st.fifoRefill++
			emptied[d] = false
		}
		lastAt[d] = at
		live[d]++
		// The test keeps the producing device in the high bits of the key.
		r.event = event{at: at, owner: owner, kind: evReceive, key: uint64(d)<<32 | r.pkt.ID}
		link(i, r, int32(d))
	}
	// pop checks the earliest event against the oracle. A receive's record is
	// then released when relink is 0, and otherwise linked again as its
	// packet's arrival from device d+relink, as the network forwards a packet.
	pop := func(relink int) {
		want := pending[0]
		pending = pending[1:]
		if _, r := q.pop(want.at - 1); r != nil {
			t.Fatalf("pop %d: pop(%v) returned an event at %v, oracle's earliest is at %v", st.pops, want.at-1, r.at, want.at)
		}
		fromRun := q.fromRun
		var top int32
		if fromRun {
			top = q.run[q.head].rec
		} else {
			top = q.heap[heapRoot].rec
		}
		nx := q.rec(top).next
		i, r := q.pop(want.at)
		if r == nil {
			t.Fatalf("pop %d: pop(%v) returned nothing, oracle's earliest is at %v", st.pops, want.at, want.at)
		}
		joined := nx != 0 && q.runLen > 0 && back().rec == nx
		switch {
		case fromRun:
			st.runPops++
			if nx != 0 && !joined {
				st.runToHeap++
			}
		case joined:
			st.heapToRun++
		}
		if q.runLen == 0 && fromRun {
			drained = true
		}
		if r.at != want.at || r.owner != want.owner || r.kind != want.kind || r.key != want.key {
			t.Fatalf("pop %d: got (at %v owner %d kind %d key %d), oracle says (at %v owner %d kind %d key %d)",
				st.pops, r.at, r.owner, r.kind, r.key, want.at, want.owner, want.kind, want.key)
		}
		if q.len() != len(pending) {
			t.Fatalf("pop %d: len() = %d with %d events pending and the popped record taken", st.pops, q.len(), len(pending))
		}
		now = r.at
		st.pops++
		if r.kind != evReceive {
			q.release(i, r)
			return
		}
		d := int(r.key >> 32)
		if uint32(r.key) != uint32(r.pkt.ID) {
			t.Fatalf("pop %d: the receive of packet %d carries packet %d", st.pops, uint32(r.key), r.pkt.ID)
		}
		live[d]--
		emptied[d] = live[d] == 0
		if relink == 0 {
			q.release(i, r)
			return
		}
		next := (d + relink) % devs
		receive(i, r, next, now+prop[next], int32(next%3))
		st.relinks++
	}
	popN := func(n, relink int) {
		for ; n > 0 && len(pending) > 0; n-- {
			pop(relink)
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%16, int(ops[i+1])
		switch {
		case op < 2: // unowned closure
			sched(event{at: now + delays[arg%len(delays)], owner: -1, kind: evClosure})
		case op < 4: // owned closure
			sched(event{at: now + delays[arg/4%len(delays)], owner: int32(arg % 4), kind: evClosure})
		case op == 4: // three closures on one (at, owner): the key decides
			for k := 0; k < 3; k++ {
				sched(event{at: now + delays[arg/4%len(delays)], owner: int32(arg%4) - 1, kind: evClosure})
			}
		case op == 5: // transmit completion of device arg%devs (node = device)
			sched(event{at: now + 120, owner: int32(arg % devs), kind: evTransmitDone})
		case op == 6: // a closure behind everything pending, or tied with the last
			at := now
			if len(pending) > 0 {
				at = pending[len(pending)-1].at
			}
			sched(event{at: at + Time(arg%3), owner: int32(arg/3%4) - 1, kind: evClosure})
		case op < 12: // a packet's first receive, through the per-device path
			d := arg % devs
			pktID++
			if q.free != 0 {
				reused[q.free>>recPageShift] = true
			}
			i, r := q.take()
			r.pkt = Packet{ID: pktID}
			receive(i, r, d, now+prop[d]+jitter[arg/16%len(jitter)], int32(arg/4%3))
		case op < 15 || arg%16 != 0: // fewer pops than pushes: the heap gets deep
			popN(1+arg%4, arg>>4&3)
		default: // run dry: every FIFO empties, later receives refill them
			popN(len(pending), 0)
		}
		if q.len() != len(pending) {
			t.Fatalf("op %d: len() = %d with %d events pending", i/2, q.len(), len(pending))
		}
		st.maxPending = max(st.maxPending, len(pending))
		st.maxHeld = max(st.maxHeld, q.assertConsistent())
	}
	popN(len(pending), 0)
	if q.len() != 0 {
		t.Fatalf("drained queue reports %d pending", q.len())
	}
	q.assertConsistent()
	st.pages, st.reusePages = len(q.pages), len(reused)
	return st
}

// TestEventQueueMatchesSortedOracle holds the queue — the sorted run beside
// the 4-ary heap of FIFO heads — to the canonical pop order over seeded
// random mixes of closures (owned, unowned, zero-delay, equal (at, owner),
// behind everything pending or tied with the last of it), transmit
// completions, and receives through the per-device path — in order, out of
// order, tied on `at` across owners, into FIFOs that run empty and refill,
// popped records linked on into another FIFO — with pops interleaved
// throughout. Odd seeds run with a run of 4 slots, which fills, even ones
// with 1 024, which does not; the run must see in-order appends, ties at its
// back settled both ways by the records, far outliers at its back turning
// inserts away, draining and refilling, and FIFO successors crossing from
// run to heap and back.
func TestEventQueueMatchesSortedOracle(t *testing.T) {
	var total queueDrive
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*1500)
		rng.Read(ops)
		ring := runSlots
		if seed%2 == 1 {
			ring = 4
		}
		st := driveQueue(t, ops, ring)
		total.pops += st.pops
		total.relinks += st.relinks
		total.maxPending = max(total.maxPending, st.maxPending)
		total.maxHeld = max(total.maxHeld, st.maxHeld)
		total.outOfOrder += st.outOfOrder
		total.fifoRefill += st.fifoRefill
		total.runPops += st.runPops
		total.appends += st.appends
		total.tieAppends += st.tieAppends
		total.tieRefused += st.tieRefused
		total.farBacks += st.farBacks
		total.refills += st.refills
		total.runToHeap += st.runToHeap
		total.heapToRun += st.heapToRun
	}
	if total.pops < 10000 || total.relinks < 1000 || total.maxPending < 150 || total.maxHeld < 50 || total.outOfOrder < 100 || total.fifoRefill < 100 {
		t.Errorf("op streams too tame to trust: %+v", total)
	}
	if total.runPops < 5000 || total.appends < 1000 || total.tieAppends < 100 || total.tieRefused < 100 ||
		total.farBacks < 100 || total.refills < 100 || total.runToHeap < 100 || total.heapToRun < 100 {
		t.Errorf("op streams leave run cases untried: %+v", total)
	}
	t.Logf("%+v", total)
}

// acrossPagesOps is a driveQueue op stream that runs the slab past two and a
// half pages: it pushes closure triples and receives until about 3 300 events
// are pending, churns — pops of four, each followed by four pushes that take
// the records just freed, which the earliest events left scattered over every
// page — and drains.
func acrossPagesOps() []byte {
	var ops []byte
	for k := 0; k < 825; k++ {
		ops = append(ops, 4, byte(k), 8, byte(k))
	}
	for k := 0; k < 400; k++ {
		ops = append(ops, 12, 3, 4, byte(k), 9, byte(k))
	}
	return append(ops, 15, 0)
}

// TestEventQueueAcrossPages holds the queue to the oracle while more than
// two and a half slab pages are pending and freed records from several pages
// are handed out again.
func TestEventQueueAcrossPages(t *testing.T) {
	st := driveQueue(t, acrossPagesOps(), runSlots)
	if 2*st.maxPending < 5*recPageLen || st.pages < 3 || st.reusePages < 3 {
		t.Errorf("op stream does not cross pages: %+v", st)
	}
}

// TestEventQueueRecordsNeverMove pins what the paged slab is for: growing
// the slab past page boundaries leaves every record where it was, so a
// pointer taken into one page stays valid.
func TestEventQueueRecordsNeverMove(t *testing.T) {
	var q eventQueue
	q.push(event{at: 1, owner: -1, kind: evClosure, key: 1})
	first := q.rec(1)
	var edge *record
	for i := int32(2); i <= 3*recPageLen; i++ {
		q.push(event{at: Time(i), owner: -1, kind: evClosure, key: uint64(i)})
		if i == recPageLen-1 {
			edge = q.rec(i)
		}
	}
	if len(q.pages) != 4 {
		t.Fatalf("slab grew to %d pages, want 4", len(q.pages))
	}
	if q.rec(1) != first || first.key != 1 {
		t.Errorf("record 1 moved or changed as the slab grew: now at %p (was %p), key %d", q.rec(1), first, first.key)
	}
	if q.rec(recPageLen-1) != edge || edge.key != recPageLen-1 {
		t.Errorf("the last record of page 0 moved or changed as the slab grew")
	}
}

// TestInFlightReceivesStayBehindFIFOHeads pins, end to end, what the queue is
// built for: with every link on a path busy at line rate, the heap holds one
// transmit completion and one FIFO head per transmitting device while the
// hundreds of packets in flight wait behind those heads. Two opposed streams
// make every node on the path receive from two devices, so a FIFO keyed by
// anything but the transmitting device (the receiving node, say) interleaves
// two arrival sequences, keeps failing linkFlight's follows-the-tail test and
// spills into the heap — every result byte unchanged, the run just slower.
func TestInFlightReceivesStayBehindFIFOHeads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ISLRateBps, cfg.GSLRateBps = 100e6, 100e6
	s, n, _ := testNet(t, cfg)
	busy := map[[2]int]bool{} // directed links used: one transmitting device each
	n.SetTransmitHook(func(ti TransmitInfo) { busy[[2]int{ti.From, ti.To}] = true })

	const packets, size = 2000, 1500
	gap := Seconds(size * 8 / cfg.GSLRateBps)
	stream := func(src, dst int) {
		n.RegisterFlow(dst, uint32(src), func(*Packet) {})
		left := packets
		var send func()
		send = func() {
			n.Send(src, dst, uint32(src), size, nil)
			if left--; left > 0 {
				s.Schedule(gap, send)
			}
		}
		s.Schedule(0, send)
	}
	stream(0, 1)
	stream(1, 0)

	var heapMax, pendingMax int
	var probe func()
	probe = func() {
		heapMax = max(heapMax, len(s.events.heap)-heapRoot)
		pendingMax = max(pendingMax, s.events.len())
		if s.Now() < Time(packets)*gap {
			s.Schedule(100*Microsecond, probe)
		}
	}
	s.Schedule(0, probe)
	s.Run(Second)

	if got := n.Delivered(); got != 2*packets {
		t.Fatalf("delivered %d of %d packets", got, 2*packets)
	}
	if pendingMax <= 500 {
		t.Fatalf("only %d events pending at high-water; the streams do not fill the links", pendingMax)
	}
	// Per busy device a transmit completion and a FIFO head; then the two
	// senders, the probe, and one event of slack.
	if bound := 2*len(busy) + 4; heapMax > bound {
		t.Errorf("heap held %d of %d pending events at high-water, want at most %d (%d busy devices): in-flight receives are not waiting behind their device's FIFO head",
			heapMax, pendingMax, bound, len(busy))
	}
	t.Logf("heap high-water %d of %d pending, %d busy devices", heapMax, pendingMax, len(busy))
}

// runCases are driveQueue op streams aimed at the run, one case each, with
// the counts that show the case reached under a run of 4 slots.
var runCases = []struct {
	name string
	ops  []byte
	hit  func(queueDrive) bool
}{
	{"in-order appends behind everything pending, popped as they come",
		[]byte{6, 1, 6, 1, 6, 2, 6, 1, 12, 0, 6, 1, 12, 0, 6, 2, 15, 0},
		func(st queueDrive) bool { return st.appends >= 5 && st.runPops == st.pops }},
	{"appends tied with the back's time, settled by the records",
		[]byte{6, 0, 6, 3, 6, 6, 6, 0, 15, 0},
		func(st queueDrive) bool { return st.tieAppends >= 2 && st.tieRefused >= 1 }},
	{"a far outlier alone in the run turns inserts away until it pops, then the run refills",
		[]byte{0, 5, 7, 0, 8, 1, 9, 2, 12, 3, 12, 3, 12, 3, 7, 0, 6, 1, 15, 0},
		func(st queueDrive) bool { return st.farBacks >= 3 && st.refills >= 1 }},
	{"the run draining and refilling",
		[]byte{6, 1, 6, 1, 15, 0, 6, 1, 6, 1, 12, 1, 15, 0},
		func(st queueDrive) bool { return st.refills >= 1 }},
	{"a FIFO successor of a run pop that precedes the run's back goes to the heap",
		[]byte{7, 0, 7, 0, 6, 2, 12, 0, 15, 0},
		func(st queueDrive) bool { return st.runToHeap >= 1 }},
	{"a FIFO head turned away by a full run pops from the heap, and its successor joins the drained run",
		[]byte{6, 1, 6, 1, 6, 1, 6, 1, 7, 0, 7, 0, 12, 3, 12, 0, 15, 0},
		func(st queueDrive) bool { return st.heapToRun >= 1 }},
}

// TestEventQueueRunCases holds each run case to the oracle under both ring
// sizes, and checks that the small ring reaches it.
func TestEventQueueRunCases(t *testing.T) {
	for _, c := range runCases {
		if st := driveQueue(t, c.ops, 4); !c.hit(st) {
			t.Errorf("%s: not reached: %+v", c.name, st)
		}
		driveQueue(t, c.ops, runSlots)
	}
}

// FuzzEventQueue lets the fuzzer write the op stream of driveQueue; any
// counterexample is a pop out of canonical order, a miscounted Pending, or
// (under hypatia_checks) a broken heap or FIFO invariant.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	// One device's FIFO filling in order, then out of order, then drained.
	f.Add([]byte{7, 0, 7, 0, 7, 32, 7, 48, 7, 0, 15, 0})
	// Receives at one instant on two devices with equal delay, other owners.
	f.Add([]byte{8, 0, 8, 5, 8, 9, 8, 1, 12, 1, 8, 4, 15, 0})
	// Closures tied on (at, owner) around a transmit completion.
	f.Add([]byte{4, 1, 5, 0, 4, 1, 0, 0, 12, 7, 4, 17, 15, 0})
	// A FIFO that empties and refills, pops interleaved.
	f.Add([]byte{9, 2, 9, 2, 12, 1, 9, 2, 15, 0, 9, 2, 9, 50, 12, 0, 9, 2, 15, 0})
	rng := rand.New(rand.NewSource(20201027))
	long := make([]byte, 512)
	rng.Read(long)
	f.Add(long)
	// More than two and a half slab pages pending, records reused across them.
	f.Add(acrossPagesOps())
	for _, c := range runCases {
		f.Add(c.ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		driveQueue(t, ops, 4)
	})
}
