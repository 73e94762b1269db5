package sim

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hypatia/internal/constellation"
	"hypatia/internal/geom"
	"hypatia/internal/groundstation"
	"hypatia/internal/routing"
)

// eagerDevice is the device as it was when every departure was an event: a
// FIFO of waiting packets, a busy flag, and a transmit completion — at the
// canonical key (done, node, evTransmitDone, di) — that pops the next one. It
// is kept as the oracle for the lazy device in network.go, which fixes the
// same departures at enqueue and executes nothing.
type eagerDevice struct {
	node, di  int32
	rateBps   float64
	q         int
	waiting   []eagerPkt
	busy      bool
	doneAt    Time // the pending transmit completion, while busy
	txPackets uint64
	txBytes   uint64
	maxQueue  int
	ties      int                    // arrivals and reads on a completion's own nanosecond
	sent      map[uint64]eagerDepart // per accepted packet, once it has started
}

type eagerPkt struct {
	id   uint64
	size int
}

type eagerDepart struct{ start, done Time }

// advance executes the device's own transmit completions that sort ahead of
// the event at key k.
func (d *eagerDevice) advance(k *event) {
	for d.busy {
		done := event{at: d.doneAt, owner: d.node, kind: evTransmitDone, key: uint64(d.di)}
		if d.doneAt == k.at {
			d.ties++
		}
		if !done.before(k) {
			return
		}
		d.busy = false
		if len(d.waiting) > 0 {
			d.transmitStart(d.doneAt)
		}
	}
}

func (d *eagerDevice) transmitStart(now Time) {
	p := d.waiting[0]
	d.waiting = d.waiting[1:]
	d.busy = true
	d.txPackets++
	d.txBytes += uint64(p.size)
	d.doneAt = now + Seconds(float64(p.size*8)/d.rateBps)
	d.sent[p.id] = eagerDepart{start: now, done: d.doneAt}
}

// enqueue is the arrival of a packet in the event at key k; it reports a
// drop-tail drop.
func (d *eagerDevice) enqueue(k *event, id uint64, size int) (dropped bool) {
	d.advance(k)
	if len(d.waiting) == d.q {
		return true
	}
	d.waiting = append(d.waiting, eagerPkt{id, size})
	d.maxQueue = max(d.maxQueue, len(d.waiting))
	if !d.busy {
		d.transmitStart(k.at)
	}
	return false
}

// devRead is what QueueLen and DeviceStats say about one device.
type devRead struct {
	waiting, maxQueue  int
	txPackets, txBytes uint64
}

func (d *eagerDevice) read(k *event) devRead {
	d.advance(k)
	return devRead{len(d.waiting), d.maxQueue, d.txPackets, d.txBytes}
}

// twoHopTopo is a mini constellation under three ground stations close enough
// to share their satellites, so the shortest path from the first to either
// other is up and straight down: two devices, the second one — the
// satellite's GSL device — feeding whichever destination a packet has. It is
// built once with its t = 0 forwarding table (both are read-only to a
// network), which is most of what a fuzzer's execution would otherwise spend.
var twoHopTopo = sync.OnceValues(func() (*routing.Topology, *routing.ForwardingTable) {
	c, err := constellation.Generate(constellation.Config{
		Name:       "Mini",
		Shells:     []constellation.Shell{{Name: "M1", AltitudeKm: 630, Orbits: 16, SatsPerOrbit: 16, IncDeg: 53}},
		MinElevDeg: 25,
	})
	if err != nil {
		panic(err)
	}
	topo, err := routing.NewTopology(c, []groundstation.GS{
		{ID: 0, Name: "Istanbul", Position: geom.LLADeg(41.0082, 28.9784, 0)},
		{ID: 1, Name: "Izmit", Position: geom.LLADeg(40.7654, 29.9408, 0)},
		{ID: 2, Name: "Bursa", Position: geom.LLADeg(40.1885, 29.0610, 0)},
	}, routing.GSLFree)
	if err != nil {
		panic(err)
	}
	return topo, topo.Snapshot(0).ForwardingTable()
})

// deviceOp is one step of a lazy-vs-eager drive, at an absolute time. A send
// goes to station dst, 1 or 2.
type deviceOp struct {
	at   Time
	kind int // opSend*, opRead*
	size int
	dst  int
}

const (
	opSendUnowned = iota // Send from a closure with no owner: sorts ahead of every transmit completion of its instant
	opSendOwned          // ... from a closure of the sending station: ahead of its own device's completion
	opSendLater          // ... from a closure of a later node: behind the sending device's completion
	opReadUnowned        // read both devices from an unowned closure
	opReadLater          // ... from a closure of the destination station, which sorts behind both devices' nodes
	// opReadUnowned and opReadLater shifted by the first hop's propagation
	// delay, to land among the second device's arrivals and completions.
	opReadUnownedFar
	opReadLaterFar
	numDeviceOps
)

// deviceDrive is what one run of an op stream produced.
type deviceDrive struct {
	dropsA, dropsB, delivered, ties int
}

// driveDevices runs the op stream over the two-hop paths on the real network,
// with positions quantized to quantum — unhooked, so no departure is an
// event, or with a transmit hook, so every one is — and checks everything
// observable against two eagerDevices fed the same arrivals: which packets
// each device drops, every delivery time, every read of occupancy, peak
// occupancy and transmit counters, and under the hook every transmission's
// start and arrival. The oracle propagates positions and computes
// serialization times afresh for every packet, so it also holds the devices'
// hop-timing memos to their keys.
func driveDevices(t *testing.T, ops []deviceOp, queue int, quantum Time, hooked bool) deviceDrive {
	t.Helper()
	topo, ft := twoHopTopo()
	src, dst := int32(topo.GSNode(0)), int32(topo.GSNode(1))
	sat := ft.NextHop(int(src), 1)
	for gs := 1; gs <= 2; gs++ {
		if ft.NextHop(int(src), gs) != sat || ft.NextHop(int(sat), gs) != int32(topo.GSNode(gs)) {
			t.Fatalf("path %d -> station %d is not two hops through %d", src, gs, sat)
		}
	}
	// A byte per nanosecond up, half that down: small sizes make instants
	// collide, and the second device is the bottleneck.
	const rateA, rateB = 8e9, 4e9
	cfg := DefaultConfig()
	cfg.ISLRateBps, cfg.GSLRateBps = rateA, rateA
	cfg.RateFor = func(node, peer int) float64 {
		if int32(node) == sat && peer == -1 {
			return rateB
		}
		return 0
	}
	cfg.QueuePackets = queue
	cfg.PosQuantum = quantum
	s := NewSimulator()
	n, err := NewNetwork(s, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.InstallForwarding(ft)
	devA, devB := n.gslDev[src], n.gslDev[sat]

	positions := map[Time][]geom.Vec3{}
	prop := func(a, b int32, at Time) Time {
		bucket := at / cfg.PosQuantum
		pos := positions[bucket]
		if pos == nil {
			pos = topo.NodePositions(Time(bucket*cfg.PosQuantum).Seconds(), nil)
			positions[bucket] = pos
		}
		return Seconds(pos[a].Distance(pos[b]) / geom.SpeedOfLight)
	}
	far := prop(src, sat, 0)

	// The real run. Every closure notes the key it executes under, which is
	// what decides its ties.
	type sendRec struct {
		key  event
		id   uint64
		size int
		dst  int32 // destination node
	}
	type readRec struct {
		key  event
		a, b devRead
	}
	var sends []sendRec
	var reads []readRec
	deliveredAt := map[uint64]Time{}
	droppedAt := map[uint64]int32{}
	type txRec struct {
		from          int32
		start, arrive Time
	}
	var transmissions []struct {
		id uint64
		txRec
	}
	curKey := func() event {
		return event{at: s.cur.at, owner: s.cur.owner, kind: s.cur.kind, key: s.cur.key}
	}
	n.RegisterFlow(1, 1, func(p *Packet) { deliveredAt[p.ID] = s.Now() })
	n.RegisterFlow(2, 1, func(p *Packet) { deliveredAt[p.ID] = s.Now() })
	n.SetDropHook(func(at Time, node int, p *Packet, r DropReason) {
		if r != DropQueue {
			t.Errorf("packet %d dropped at node %d for %v", p.ID, node, r)
		}
		droppedAt[p.ID] = int32(node)
	})
	if hooked {
		n.SetTransmitHook(func(ti TransmitInfo) {
			transmissions = append(transmissions, struct {
				id uint64
				txRec
			}{ti.Packet.ID, txRec{int32(ti.From), ti.Start, ti.Arrive}})
		})
	}
	read := func(di int32) devRead {
		d := &n.devs[di]
		peer := dst
		if di == devA {
			peer = sat
		}
		st := n.DeviceStats()[di]
		return devRead{n.QueueLen(int(d.node), int(peer)), st.MaxQueue, st.TxPkts, st.TxBytes}
	}
	for _, op := range ops {
		op := op
		send := func() {
			k := curKey()
			sends = append(sends, sendRec{k, n.Send(0, op.dst, 1, op.size, nil), op.size, int32(topo.GSNode(op.dst))})
		}
		probe := func() { reads = append(reads, readRec{curKey(), read(devA), read(devB)}) }
		switch op.kind {
		case opSendUnowned:
			s.ScheduleAt(op.at, send)
		case opSendOwned:
			n.Clock(0).Schedule(op.at, send)
		case opSendLater:
			n.Clock(1).Schedule(op.at, send)
		case opReadUnowned:
			s.ScheduleAt(op.at, probe)
		case opReadLater:
			n.Clock(1).Schedule(op.at, probe)
		case opReadUnownedFar:
			s.ScheduleAt(op.at+far, probe)
		case opReadLaterFar:
			n.Clock(1).Schedule(op.at+far, probe)
		}
	}
	s.Run(Second)
	after := event{at: s.Now(), owner: afterAll}
	reads = append(reads, readRec{after, read(devA), read(devB)})

	// The oracle. Device A sees the sends in execution order; what it
	// forwards arrives at the satellite as evReceive events, which with the
	// reads — all in canonical order — are what device B sees.
	a := &eagerDevice{node: src, di: devA, rateBps: rateA, q: queue, sent: map[uint64]eagerDepart{}}
	b := &eagerDevice{node: sat, di: devB, rateBps: rateB, q: queue, sent: map[uint64]eagerDepart{}}
	type step struct {
		key  event
		send *sendRec // nil: a read
		read *readRec
	}
	var stepsA, stepsB []step
	for i := range sends {
		stepsA = append(stepsA, step{key: sends[i].key, send: &sends[i]})
	}
	for i := range reads {
		stepsA = append(stepsA, step{key: reads[i].key, read: &reads[i]})
		stepsB = append(stepsB, step{key: reads[i].key, read: &reads[i]})
	}
	byKey := func(x, y step) int {
		if x.key.before(&y.key) {
			return -1
		}
		return 1
	}
	slices.SortStableFunc(stepsA, byKey)
	var res deviceDrive
	wantDropped := map[uint64]int32{}
	for _, st := range stepsA {
		if st.read != nil {
			if got, want := st.read.a, a.read(&st.key); got != want {
				t.Fatalf("read at %d ns (owner %d) of the first device: %+v, eager device has %+v", st.key.at, st.key.owner, got, want)
			}
			continue
		}
		if a.enqueue(&st.key, st.send.id, st.send.size) {
			wantDropped[st.send.id] = src
			res.dropsA++
		}
	}
	arrivals := make([]sendRec, 0, len(sends))
	for _, sd := range sends {
		if dep, ok := a.sent[sd.id]; ok {
			at := dep.done + prop(src, sat, dep.done)
			arrivals = append(arrivals, sendRec{event{at: at, owner: sat, kind: evReceive, key: sd.id}, sd.id, sd.size, sd.dst})
		} else if _, dropped := wantDropped[sd.id]; !dropped {
			t.Fatalf("packet %d neither dropped nor sent by the first eager device", sd.id)
		}
	}
	for i := range arrivals {
		stepsB = append(stepsB, step{key: arrivals[i].key, send: &arrivals[i]})
	}
	slices.SortStableFunc(stepsB, byKey)
	for _, st := range stepsB {
		if st.read != nil {
			if got, want := st.read.b, b.read(&st.key); got != want {
				t.Fatalf("read at %d ns (owner %d) of the second device: %+v, eager device has %+v", st.key.at, st.key.owner, got, want)
			}
			continue
		}
		if b.enqueue(&st.key, st.send.id, st.send.size) {
			wantDropped[st.send.id] = sat
			res.dropsB++
		}
	}

	for _, sd := range sends {
		node, wantDrop := wantDropped[sd.id]
		gotNode, gotDrop := droppedAt[sd.id]
		if wantDrop != gotDrop || node != gotNode {
			t.Fatalf("packet %d (%d B, sent at %d ns): dropped=%v at node %d, eager devices say dropped=%v at node %d",
				sd.id, sd.size, sd.key.at, gotDrop, gotNode, wantDrop, node)
		}
		if wantDrop {
			continue
		}
		dep := b.sent[sd.id]
		if got, want := deliveredAt[sd.id], dep.done+prop(sat, sd.dst, dep.done); got != want {
			t.Fatalf("packet %d delivered at %d ns, eager devices deliver it at %d", sd.id, got, want)
		}
		res.delivered++
	}
	if got := int(n.Delivered()); got != res.delivered || len(deliveredAt) != res.delivered {
		t.Fatalf("%d packets delivered (%d seen by the handler), eager devices deliver %d", got, len(deliveredAt), res.delivered)
	}
	if hooked {
		dstOf := map[uint64]int32{}
		for _, sd := range sends {
			dstOf[sd.id] = sd.dst
		}
		want := 0
		for _, tx := range transmissions {
			dev, to := a, sat
			if tx.from == sat {
				dev, to = b, dstOf[tx.id]
			}
			dep, ok := dev.sent[tx.id]
			if !ok || tx.start != dep.start || tx.arrive != dep.done+prop(tx.from, to, dep.done) {
				t.Fatalf("transmit hook: packet %d from %d start %d arrive %d; eager device: sent=%v start %d done %d",
					tx.id, tx.from, tx.start, tx.arrive, ok, dep.start, dep.done)
			}
		}
		want = len(a.sent) + len(b.sent)
		if len(transmissions) != want {
			t.Fatalf("transmit hook saw %d transmissions, eager devices made %d", len(transmissions), want)
		}
	}
	res.ties = a.ties + b.ties
	return res
}

// TestLazyDeviceTies walks every way an enqueue can land on the exact
// nanosecond of a departure. With room for one waiting packet the outcome of
// each is a drop or not: the waiting packet's departure (its start, the
// completion of the one ahead) either has or has not made room.
func TestLazyDeviceTies(t *testing.T) {
	// Device A: 4 B at 0 starts at once and completes at 4; 4 B at 1 waits
	// for 4. The third send lands on 4.
	third := func(kind int) []deviceOp {
		return []deviceOp{{0, opSendUnowned, 4, 1}, {1, opSendUnowned, 4, 1}, {4, kind, 4, 1}}
	}
	for _, tc := range []struct {
		name           string
		ops            []deviceOp
		dropsA, dropsB int
	}{
		// An unowned closure runs ahead of every node's events: the waiting
		// packet is still waiting, the queue is full.
		{"unowned closure at a completion", third(opSendUnowned), 1, 0},
		// A closure of the node itself sorts ahead of its transmit completion.
		{"owned closure at a completion", third(opSendOwned), 1, 0},
		// A closure of a later node runs after it: the waiting packet has
		// started and left its place.
		{"later node's closure at a completion", third(opSendLater), 0, 0},
		// Device B, at half the rate, with arrivals from A at p+4, p+8 and
		// p+12 (p the propagation delay): the first completes at p+12, the
		// second waits for it, and the third arrives on p+12 exactly. A node's
		// evReceive sorts behind its transmit completion, so there is room.
		{"evReceive at a completion", []deviceOp{{0, opSendUnowned, 4, 1}, {1, opSendUnowned, 4, 1}, {5, opSendUnowned, 4, 1}}, 0, 0},
		// The same arrival one nanosecond early finds the queue full.
		{"evReceive before a completion", []deviceOp{{0, opSendUnowned, 4, 1}, {1, opSendUnowned, 4, 1}, {5, opSendUnowned, 3, 1}}, 0, 1},
	} {
		for _, hooked := range []bool{false, true} {
			res := driveDevices(t, tc.ops, 1, fuzzQuantum, hooked)
			if res.dropsA != tc.dropsA || res.dropsB != tc.dropsB {
				t.Errorf("%s (hooked=%v): %d drops at the first device and %d at the second, want %d and %d",
					tc.name, hooked, res.dropsA, res.dropsB, tc.dropsA, tc.dropsB)
			}
			if res.ties == 0 && tc.dropsB == 0 {
				t.Errorf("%s (hooked=%v): no event shared a nanosecond with a departure", tc.name, hooked)
			}
		}
	}
}

// deviceOps decodes a fuzzer's bytes into an op stream: two bytes an op, the
// first choosing its kind (low three bits), size (next three: 1-8 B) and
// destination station (next bit: 1 or 2), the second the nanoseconds since
// the op before (0-7).
func deviceOps(b []byte) []deviceOp {
	var ops []deviceOp
	at := Time(0)
	for i := 0; i+1 < len(b); i += 2 {
		at += Time(b[i+1] % 8)
		ops = append(ops, deviceOp{at: at, kind: int(b[i]&7) % numDeviceOps, size: 1 + int(b[i]>>3&7), dst: 1 + int(b[i]>>6&1)})
	}
	return ops
}

// fuzzQuantum is the position quantum of the seeded and fuzzed drives: short
// enough that their few microseconds cross position buckets.
const fuzzQuantum = 2 * Microsecond

// memoPatternOps is the hop memos' hard case (TestHopMemoMatchesUnmemoized)
// in deviceOps bytes: sends that alternate between two sizes, and between the
// two destinations every four sends, 7 ns apart for long enough to cross
// fuzzQuantum bucket edges.
func memoPatternOps() []byte {
	var b []byte
	for k := 0; k < 600; k++ {
		size := byte(1) // 2 B
		if k%2 == 1 {
			size = 6 // 7 B
		}
		b = append(b, opSendUnowned|size<<3|byte(k/4%2)<<6, 7)
	}
	return b
}

func TestLazyDeviceMatchesEager(t *testing.T) {
	var total deviceDrive
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 2*600)
		rng.Read(b)
		for i := 0; i < len(b); i += 2 {
			if seed%2 == 0 {
				b[i] &^= 4 // sends only: a stream that keeps both queues full
			}
		}
		for _, hooked := range []bool{false, true} {
			res := driveDevices(t, deviceOps(b), 3, fuzzQuantum, hooked)
			total.dropsA += res.dropsA
			total.dropsB += res.dropsB
			total.delivered += res.delivered
			total.ties += res.ties
		}
	}
	if total.dropsA < 100 || total.dropsB < 20 || total.delivered < 1000 || total.ties < 500 {
		t.Errorf("op streams too tame to trust: %+v", total)
	}
}

// FuzzLazyDevice lets the fuzzer write the op stream of driveDevices.
func FuzzLazyDevice(f *testing.F) {
	f.Add([]byte{}, uint8(1), false)
	// The tie table's rows.
	f.Add([]byte{3 << 3, 0, 3 << 3, 1, 3<<3 | opSendLater, 3}, uint8(1), false)
	f.Add([]byte{3 << 3, 0, 3 << 3, 1, 3 << 3, 4}, uint8(1), true)
	rng := rand.New(rand.NewSource(20201027))
	long := make([]byte, 256)
	rng.Read(long)
	f.Add(long, uint8(3), false)
	f.Add(long, uint8(2), true)
	f.Add(memoPatternOps(), uint8(8), true)
	f.Fuzz(func(t *testing.T, b []byte, queue uint8, hooked bool) {
		if len(b) > 1024 {
			b = b[:1024]
		}
		driveDevices(t, deviceOps(b), 1+int(queue%8), fuzzQuantum, hooked)
	})
}

// TestHopMemoMatchesUnmemoized drives the satellite's GSL device through
// sends that alternate between two packet sizes, and between its two
// destinations every four sends, while its completions cross a position-bucket
// edge at the default 10 ms quantum, where a bucket moves a delay by
// nanoseconds: every arrival and every transmit-hook start must equal the
// un-memoized propagation and serialization times. A memo keyed on the bucket
// alone misses the target changing inside a bucket; one keyed on the target
// alone misses the edge inside a run of one target, which for at least three
// of the four start offsets tried falls between two of the run's sends; and a
// stale serialization time moves every start behind it.
func TestHopMemoMatchesUnmemoized(t *testing.T) {
	const quantum = 10 * Millisecond
	topo, ft := twoHopTopo()
	src, sat := int32(topo.GSNode(0)), ft.NextHop(topo.GSNode(0), 1)
	delay := func(a, b int32, at Time) Time {
		p := topo.NodePositions((at / quantum * quantum).Seconds(), nil)
		return Seconds(p[a].Distance(p[b]) / geom.SpeedOfLight)
	}
	const edge = 3 * quantum
	for gs := 1; gs <= 2; gs++ {
		if to := int32(topo.GSNode(gs)); delay(sat, to, edge-1) == delay(sat, to, edge) {
			t.Fatalf("the delay toward station %d does not change at the bucket edge; the drive cannot tell a target-keyed memo", gs)
		}
	}
	// The satellite's completions straddle edge: sends start about 600 ns
	// before the first hop's delay would land them there, 23 ns apart.
	for offset := 0; offset < 4; offset++ {
		first := edge - delay(src, sat, edge) - 600 + Time(23*offset)
		var ops []deviceOp
		for k := 0; k < 60; k++ {
			size := 3
			if k%2 == 1 {
				size = 8
			}
			ops = append(ops, deviceOp{at: first + Time(23*k), kind: opSendUnowned, size: size, dst: 1 + k/4%2})
		}
		for _, hooked := range []bool{false, true} {
			if res := driveDevices(t, ops, 100, quantum, hooked); res.delivered != len(ops) {
				t.Errorf("offset %d, hooked=%v: %d of %d packets delivered", offset, hooked, res.delivered, len(ops))
			}
		}
	}
}

// TestPositionRingPropagatesEachBucketOnce pins the position cache against
// the access pattern a fixed-at-enqueue departure creates: delays asked for
// several buckets ahead of the clock, out of order, by different devices.
// Every bucket is propagated once, however the requests interleave, and a
// slot is reused only once its bucket is behind the clock.
func TestPositionRingPropagatesEachBucketOnce(t *testing.T) {
	s, n, topo := testNet(t, DefaultConfig())
	q := n.cfg.PosQuantum
	const b = 7
	s.Schedule(b*q, func() {})
	s.Run(b * q) // the clock stands in bucket b
	want := func(bucket Time) []geom.Vec3 { return topo.NodePositions((bucket * q).Seconds(), nil) }
	for i, bucket := range []Time{b + 5, b + 1, b + 5, b, b + 1, b + 5} {
		got := n.positionsAt(s, bucket*q+Time(i))
		if !slices.Equal(got, want(bucket)) {
			t.Fatalf("request %d: positions of bucket %d are wrong", i, bucket)
		}
	}
	if s.st.posFills != 3 {
		t.Errorf("three buckets requested six times were propagated %d times", s.st.posFills)
	}
	if len(s.st.posRing) != 8 {
		t.Errorf("buckets %d..%d live at once in a ring of %d slots, want 8", b, b+5, len(s.st.posRing))
	}
	// Once the clock has passed them, their slots serve later buckets and
	// the ring stays as it is.
	s.Schedule(8*q, func() {})
	s.Run(s.Now() + 8*q)
	for _, bucket := range []Time{b + 8, b + 13, b + 9, b + 13} {
		if got := n.positionsAt(s, bucket*q); !slices.Equal(got, want(bucket)) {
			t.Fatalf("positions of bucket %d are wrong after reuse", bucket)
		}
	}
	if s.st.posFills != 6 || len(s.st.posRing) != 8 {
		t.Errorf("after reuse: %d buckets propagated into %d slots, want 6 into 8", s.st.posFills, len(s.st.posRing))
	}
}
