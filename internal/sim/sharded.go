package sim

import (
	"fmt"
	"math"

	"hypatia/internal/check"
	"hypatia/internal/geom"
	"hypatia/internal/routing"
)

// This file implements the sharded conservative-parallel execution mode.
//
// Nodes are partitioned into shards, each owning a Simulator (event queue +
// clock) that a dedicated goroutine advances through lookahead windows. The
// windows are derived from the minimum cross-shard propagation delay: any
// event a shard executes at time t can influence another shard no earlier
// than t + minProp, so all shards may run [t, W) with W = t + minProp
// concurrently without communicating. Positions are piecewise-constant per
// PosQuantum bucket, which makes the bound exact (not a motion-margin
// estimate): the window computation takes the min over every position
// bucket the window overlaps.
//
// Cross-shard packets become timestamped handoffs: the sending shard
// appends to a per-destination outbox, and the coordinator — which owns
// every shard engine between windows (ownership passes over the command/
// done channels; the race detector over the sharded differentials is the
// gate on that discipline) — routes them into the destination queues, as
// plain heap events, before the next window. Handoff arrival times always
// land at or beyond the window boundary (asserted under hypatia_checks), so
// no shard ever receives an event in its past.
//
// Determinism: events are ordered by the canonical content key
// (at, owner, kind, key, seq) on every engine, so each shard pops exactly
// the subsequence of the serial run's event sequence that its nodes own.
// Per-node state (devices, queues, flow handlers) is only touched by its
// owner's events; forwarding state and position caches are engine-local
// copies of values that are pure functions of the update instant; and
// transport endpoints are colocated onto one shard so flow callbacks stay
// single-engine. Monitoring hooks are journaled per shard with their
// canonical emission keys and replayed in merged order after the run,
// which is why a sharded run's delivery/drop/transmit traces are
// byte-identical to the serial loop's.

// handoff is a cross-shard packet arrival: pkt reaches node at time at.
// Ownership of the packet transfers with the handoff — the sending shard
// never touches it again.
type handoff struct {
	at   Time
	node int32
	pkt  *Packet
}

// Journal record kinds.
const (
	jTransmit = iota
	jDrop
	jDeliver
)

// journalRec is one deferred hook emission. pkt is a value snapshot taken
// at emission time (the live packet mutates as it keeps traveling).
type journalRec struct {
	key    journalKey
	jk     uint8
	at     Time
	a, b   int32 // jTransmit: from/to; jDrop: node; jDeliver: gs
	arrive Time
	reason DropReason
	pkt    Packet
}

// emissionKey identifies a hook emission within the executing event:
// the event's canonical key plus a per-event emission counter.
func (s *Simulator) emissionKey() journalKey {
	k := s.cur
	k.sub = s.curSub
	s.curSub++
	return k
}

func recLess(a, b *journalRec) bool {
	x, y := &a.key, &b.key
	if x.at != y.at {
		return x.at < y.at
	}
	if x.owner != y.owner {
		return x.owner < y.owner
	}
	if x.kind != y.kind {
		return x.kind < y.kind
	}
	if x.key != y.key {
		return x.key < y.key
	}
	if x.seq != y.seq {
		return x.seq < y.seq
	}
	return x.sub < y.sub
}

// Clock is a node-bound scheduling handle. Transports hold one per flow and
// use it instead of Network.Sim: in a sharded run it resolves to the engine
// that owns the node, so timers fire on the shard that executes the flow's
// packets; in a serial run it resolves to the root engine and behaves
// exactly like Simulator.Schedule/Now.
type Clock struct {
	net  *Network
	node int32
}

// Clock returns a scheduling handle bound to ground station gs. It panics
// when gs is not a station index.
func (n *Network) Clock(gs int) Clock {
	return Clock{net: n, node: n.gsNode(gs, "Clock")}
}

// Now returns the owning engine's current time.
func (c Clock) Now() Time { return c.net.simFor(c.node).now }

// Schedule enqueues fn to run delay from now on the node's owning engine.
// Negative delays panic, as on Simulator.Schedule.
func (c Clock) Schedule(delay Time, fn func()) {
	s := c.net.simFor(c.node)
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at %v", delay, s.now))
	}
	s.scheduleOwnedAt(s.now+delay, c.node, fn)
}

// Colocate constrains two ground stations to the same shard. Transports
// that share state across endpoints register the constraint (RegisterFlow
// applies it automatically for flows registered at both ends); callers with
// out-of-band coupling between stations can add their own. It panics when
// either is not a station index.
func (n *Network) Colocate(aGS, bGS int) {
	n.gsNode(aGS, "Colocate")
	n.gsNode(bGS, "Colocate")
	n.colocate(int32(aGS), int32(bGS))
}

func (n *Network) colocate(a, b int32) {
	if n.coloc == nil {
		n.coloc = make([]int32, n.Topo.NumGS())
		for i := range n.coloc {
			n.coloc[i] = int32(i)
		}
	}
	ra, rb := n.colocRoot(a), n.colocRoot(b)
	if ra != rb {
		if rb < ra {
			ra, rb = rb, ra
		}
		n.coloc[rb] = ra // smaller index wins: deterministic roots
	}
}

func (n *Network) colocRoot(g int32) int32 {
	if n.coloc == nil {
		return g
	}
	for n.coloc[g] != g {
		n.coloc[g] = n.coloc[n.coloc[g]] // path halving
		g = n.coloc[g]
	}
	return g
}

// partition assigns nodes to shards: satellites in contiguous id blocks
// (ISL meshes are plane-local, so block cuts keep most ISLs internal), and
// ground-station colocation groups round-robin across shards.
func (n *Network) partition(shards int) []int32 {
	numSats := n.Topo.NumSats()
	shardOf := make([]int32, n.Topo.NumNodes())
	per := (numSats + shards - 1) / shards
	for s := 0; s < numSats; s++ {
		k := s / per
		if k >= shards {
			k = shards - 1
		}
		shardOf[s] = int32(k)
	}
	next := 0
	groupShard := map[int32]int32{}
	for g := 0; g < n.Topo.NumGS(); g++ {
		r := n.colocRoot(int32(g))
		k, ok := groupShard[r]
		if !ok {
			k = int32(next % shards)
			next++
			groupShard[r] = k
		}
		shardOf[n.Topo.GSNode(g)] = k
	}
	return shardOf
}

// lookahead computes per-window horizons from cross-shard geometry. The
// cross-shard link set is fixed for a partition: the ISL pairs whose
// endpoints landed on different shards, plus — for GSL traffic, where any
// satellite may talk to any ground station the forwarding plan names — every
// satellite with a ground station on another shard, bounded below by
// (satellite geocentric radius − max ground-station geocentric radius).
// Positions are piecewise-constant per PosQuantum bucket, so the per-bucket
// minimum distance is an exact bound for every transmission decided in that
// bucket.
type lookahead struct {
	n       *Network
	crossA  []int32
	crossB  []int32
	gslSats []int32
	gsNodes []int32
	pos     []geom.Vec3
	bucket  Time
	minProp Time
}

func newLookahead(n *Network, shardOf []int32, shards int) *lookahead {
	la := &lookahead{n: n, bucket: -1}
	for _, isl := range n.Topo.Constellation.ISLs {
		if shardOf[isl.A] != shardOf[isl.B] {
			la.crossA = append(la.crossA, int32(isl.A))
			la.crossB = append(la.crossB, int32(isl.B))
		}
	}
	gsShards := make([]bool, shards)
	for g := 0; g < n.Topo.NumGS(); g++ {
		node := int32(n.Topo.GSNode(g))
		la.gsNodes = append(la.gsNodes, node)
		gsShards[shardOf[node]] = true
	}
	for s := 0; s < n.Topo.NumSats(); s++ { // satellite ids double as node ids
		for k := range gsShards {
			if gsShards[k] && int32(k) != shardOf[s] {
				la.gslSats = append(la.gslSats, int32(s))
				break
			}
		}
	}
	return la
}

// minPropAt returns the minimum cross-shard propagation delay for one
// position bucket (cached: windows revisit the same bucket repeatedly).
func (la *lookahead) minPropAt(bucket Time) Time {
	if bucket == la.bucket {
		return la.minProp
	}
	n := la.n
	la.pos = n.Topo.NodePositions(Time(bucket*n.cfg.PosQuantum).Seconds(), la.pos)
	minDist := math.Inf(1)
	for i := range la.crossA {
		if d := la.pos[la.crossA[i]].Distance(la.pos[la.crossB[i]]); d < minDist {
			minDist = d
		}
	}
	if len(la.gslSats) > 0 {
		var origin geom.Vec3
		maxGSR := 0.0
		for _, g := range la.gsNodes {
			if r := la.pos[g].Distance(origin); r > maxGSR {
				maxGSR = r
			}
		}
		for _, s := range la.gslSats {
			if d := la.pos[s].Distance(origin) - maxGSR; d < minDist {
				minDist = d
			}
		}
	}
	la.bucket = bucket
	switch {
	case math.IsInf(minDist, 1):
		la.minProp = Time(1) << 62 // no cross-shard links at all
	default:
		mp := Seconds(minDist / geom.SpeedOfLight)
		if mp < 1 {
			mp = 1 // degenerate geometry: keep the horizon positive
		}
		la.minProp = mp
	}
	return la.minProp
}

func satAdd(a, b Time) Time {
	c := a + b
	if c < a {
		return Time(1) << 62
	}
	return c
}

// window returns the horizon for a window starting at t: the largest W such
// that every transmission decided in [t, W) arrives cross-shard at or after
// W, taking the exact per-bucket minimum over every position bucket the
// window overlaps. The final window (W reaching until) is inclusive.
func (la *lookahead) window(t, until Time) (Time, bool) {
	q := la.n.cfg.PosQuantum
	b := t / q
	w := satAdd(t, la.minPropAt(b))
	for nb := (b + 1) * q; nb < w && nb <= until; nb += q {
		if c := satAdd(nb, la.minPropAt(nb/q)); c < w {
			w = c
		}
	}
	if w >= until {
		return until, true
	}
	return w, false
}

// shardWindow is one command to a shard goroutine: adopt an engine (sim
// non-nil, the ownership handoff) or execute a window.
type shardWindow struct {
	sim       *Simulator
	end       Time
	inclusive bool
}

// shardLoop drives one shard. The goroutine owns nothing at launch: its
// engine arrives over cmds, and every done send parks the goroutine and
// returns engine ownership to the coordinator until the next command.
func shardLoop(cmds <-chan shardWindow, done chan<- struct{}) {
	var s *Simulator
	for w := range cmds {
		if w.sim != nil {
			s = w.sim
			continue
		}
		s.runWindow(w.end, w.inclusive)
		done <- struct{}{}
	}
}

// RunSharded executes the network's pending events to `until` on `shards`
// concurrent engines, producing delivery/drop/transmit traces byte-identical
// to Simulator.Run. Forwarding updates scheduled with ScheduleInstalls
// execute on every shard: the coordinator takes each instant's table off the
// source once and stages a clone per shard.
//
// Constraints: transports must bind to Network.Clock handles (all transports
// in this repo do), hook emission order is reproduced by post-run replay, a
// Stop of the root engine takes effect at the end of the current lookahead
// window, and the root engine's Schedule panics for the duration of the run.
// On return the root engine owns all unexecuted future events again —
// forwarding updates included — with the clock at until, so further serial
// or sharded runs may resume the same network.
func (n *Network) RunSharded(until Time, shards int) {
	root := n.Sim
	if n.shardOf != nil {
		panic("sim: nested sharded run")
	}
	if shards > n.Topo.NumSats() {
		shards = n.Topo.NumSats()
	}
	if shards < 1 {
		shards = 1
	}

	shardOf := n.partition(shards)
	journaling := n.onTransmit != nil || n.onDrop != nil || n.onDeliver != nil

	sims := make([]*Simulator, shards)
	for k := range sims {
		s := NewSimulator()
		s.net = n
		s.shard = int32(k)
		s.st.journaling = journaling
		s.events.devices(n.numFIFOs())
		s.st.outbox = make([][]handoff, shards)
		s.st.installs = root.st.installs
		s.seq = root.seq
		s.now = root.now
		s.cur = root.cur
		if root.st.ft != nil {
			s.st.ft = root.st.ft.CloneInto(nil)
		}
		sims[k] = s
	}
	// Migrate pending events to their owners' shards (unowned events run on
	// shard 0), in-flight FIFOs drained into plain records: a device's FIFO
	// lives on the engine that executes the device, and starts empty there.
	// Forwarding state is engine-local, so every shard gets its own copy of
	// each install event and installs its own clone.
	for _, e := range root.events.takeAll() {
		switch {
		case e.kind == evInstall:
			for k := range sims {
				sims[k].events.push(e)
			}
		case e.owner >= 0:
			sims[shardOf[e.owner]].events.push(e)
		default:
			sims[0].events.push(e)
		}
	}
	if check.Enabled {
		for k := range sims {
			check.Assert(sims[k].events.assertConsistent() == 0, "shard %d starts with FIFO-held events", k)
		}
	}
	n.shardOf = shardOf
	n.sims = sims
	root.migrated = true

	cmds := make([]chan shardWindow, shards)
	done := make([]chan struct{}, shards)
	for k := range sims {
		cmds[k] = make(chan shardWindow, 1)
		done[k] = make(chan struct{}, 1)
		go shardLoop(cmds[k], done[k])
		cmds[k] <- shardWindow{sim: sims[k]}
	}

	la := newLookahead(n, shardOf, shards)
	var freelist []*routing.ForwardingTable
	nextInstall := root.st.installs
	root.stopped = false
	t := root.now
	// A closure running on a shard stops the run through the root engine
	// (the only one user code can name); the done receives below order that
	// write before this read.
	for !root.stopped {
		// Jump over event gaps: handoffs are generated only by executing
		// events, so an interval with no pending events anywhere stays
		// empty.
		earliest := Time(-1)
		for k := range sims {
			if sims[k].events.len() > 0 {
				if at := sims[k].events.nextAt(); earliest < 0 || at < earliest {
					earliest = at
				}
			}
		}
		if earliest < 0 || earliest > until {
			break
		}
		if earliest > t {
			t = earliest
		}
		end, inclusive := la.window(t, until)
		// Stage table clones for the install instants this window executes.
		for nextInstall < len(n.installAt) {
			at := n.installAt[nextInstall]
			if at > end || (at == end && !inclusive) {
				break
			}
			master := <-n.tables
			for k := range sims {
				var dst *routing.ForwardingTable
				if len(freelist) > 0 {
					dst = freelist[len(freelist)-1]
					freelist = freelist[:len(freelist)-1]
				}
				sims[k].st.pendingTables = append(sims[k].st.pendingTables, master.CloneInto(dst))
			}
			master.Release()
			nextInstall++
		}
		// Hand each engine to its shard goroutine for the window; the done
		// receives return ownership of every engine to this coordinator.
		for k := range sims {
			sims[k].windowEnd = end
			cmds[k] <- shardWindow{end: end, inclusive: inclusive}
		}
		for k := range done {
			<-done[k]
		}
		// Route handoffs into destination queues and recycle displaced
		// table clones.
		for k := range sims {
			s := sims[k]
			for j := range s.st.outbox {
				dst := sims[j]
				for _, h := range s.st.outbox[j] {
					if check.Enabled {
						check.Assert(h.at >= dst.now,
							"handoff at %v behind shard %d clock %v", h.at, j, dst.now)
					}
					dst.events.push(event{at: h.at, owner: h.node, kind: evReceive, key: h.pkt.ID, seq: dst.nextSeq(), pkt: h.pkt})
				}
				s.st.outbox[j] = s.st.outbox[j][:0]
			}
			freelist = append(freelist, s.st.freed...)
			s.st.freed = s.st.freed[:0]
		}
		t = end
	}
	for k := range cmds {
		close(cmds[k])
	}

	// Fold shard state back into the root engine: counters, clocks, and
	// unexecuted future events (so a later run may resume). Every window runs
	// to its end on every shard, so the shards agree on forwarding state and
	// hold identical copies of the remaining install events; the root takes
	// shard 0's.
	for k := range sims {
		s := sims[k]
		if check.Enabled {
			check.Assert(s.st.installs == sims[0].st.installs && len(s.st.pendingTables) == 0,
				"shard %d ended on install %d with %d staged tables; shard 0 on install %d",
				k, s.st.installs, len(s.st.pendingTables), sims[0].st.installs)
		}
		root.processed += s.processed
		root.st.delivered += s.st.delivered
		for r := range s.st.drops {
			root.st.drops[r] += s.st.drops[r]
		}
		if s.seq > root.seq {
			root.seq = s.seq
		}
		if s.now > root.now {
			root.now = s.now
		}
		for _, e := range s.events.takeAll() {
			if e.kind != evInstall || k == 0 {
				root.events.push(e)
			}
		}
	}
	if check.Enabled {
		check.Assert(root.events.assertConsistent() == 0, "root engine resumes with FIFO-held events")
	}
	n.shardOf = nil
	n.sims = nil
	root.migrated = false
	root.st.installs = sims[0].st.installs
	root.st.ft = sims[0].st.ft
	if !root.stopped && root.now < until {
		root.now = until
	}
	// Every shard ran its last window to the end, so whatever the root clock
	// reads, all events up to it have executed.
	root.cur = journalKey{at: root.now, owner: afterAll}
	if journaling {
		n.replayJournals(sims)
	}
}

// replayJournals merges the per-shard hook journals (each already in
// canonical order) and fires the hooks in the exact order the serial engine
// would have.
func (n *Network) replayJournals(sims []*Simulator) {
	idx := make([]int, len(sims))
	for {
		best := -1
		for k := range sims {
			if idx[k] >= len(sims[k].st.journal) {
				continue
			}
			if best < 0 || recLess(&sims[k].st.journal[idx[k]], &sims[best].st.journal[idx[best]]) {
				best = k
			}
		}
		if best < 0 {
			return
		}
		rec := &sims[best].st.journal[idx[best]]
		idx[best]++
		switch rec.jk {
		case jTransmit:
			if n.onTransmit != nil {
				n.onTransmit(TransmitInfo{From: int(rec.a), To: int(rec.b), Packet: &rec.pkt, Start: rec.at, Arrive: rec.arrive})
			}
		case jDrop:
			if n.onDrop != nil {
				n.onDrop(rec.at, int(rec.a), &rec.pkt, rec.reason)
			}
		case jDeliver:
			if n.onDeliver != nil {
				n.onDeliver(rec.at, int(rec.a), &rec.pkt)
			}
		}
	}
}
