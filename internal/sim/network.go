package sim

import (
	"fmt"
	"math"

	"hypatia/internal/check"
	"hypatia/internal/geom"
	"hypatia/internal/routing"
)

// Packet is a simulated network packet. Size covers everything serialized on
// the wire (payload plus headers). Seq, Ack and Flags are the transport's
// fixed header words, carried by value; Payload carries anything of variable
// length beyond them (TCP's SACK blocks). The network reads none of the four.
//
// Lifetime: a packet lives inside the event-queue record of its next event,
// which travels with it from hop to hop and is reused once the journey ends
// (delivered or dropped). A *Packet handed to a Handler or to a transmit,
// drop or deliver hook is valid only until that callback returns; a callback
// that needs the packet later copies the value. Builds with the
// hypatia_checks tag poison a released record (ID ^0, Hops -1, Size -1) so a
// retained pointer fails loudly.
//
// The fields are ordered (and everything but the 64-bit words narrowed to 32
// bits) to keep the packet at 80 bytes and its record at 128, so that a page
// of 1 024 records is exactly sixteen 8 KiB runtime pages and every record
// two aligned cache lines (TestPageElementsFillWholePages; DESIGN.md, "Event
// records").
type Packet struct {
	ID     uint64
	SentAt Time // time the packet entered the network at its source

	Seq, Ack int64 // transport header words

	Payload any

	FlowID uint32 // demultiplexing key at the destination node
	Size   int32  // bytes on the wire
	Hops   int32  // hops traversed so far
	SrcGS  int32  // source ground-station index
	DstGS  int32  // destination ground-station index

	// The hop in progress, for the evTransmitDone of an observed
	// transmission (a packet is in one device at a time): next-hop node and
	// the loss model's verdict. Stale otherwise. The serialization start is
	// not kept: transmitDone derives it from the completion.
	txTarget int32
	txLost   bool

	Flags uint8 // transport header flags
}

// Handler consumes packets delivered to a ground station for a flow. The
// packet is valid only until the handler returns (see Packet).
type Handler func(*Packet)

// DropReason classifies packet drops.
type DropReason int

const (
	// DropQueue: the outgoing device's drop-tail queue was full.
	DropQueue DropReason = iota
	// DropNoRoute: the forwarding table had no next hop for the
	// destination (e.g. the destination GS sees no satellite).
	DropNoRoute
	// DropTTL: the packet exceeded the hop limit (transient loops can form
	// while forwarding state is mid-update across nodes).
	DropTTL
	// DropNoHandler: delivered to the destination GS but no transport
	// handler was registered for the flow.
	DropNoHandler
	// DropLink: the configured LossModel discarded the packet in flight
	// (e.g. weather-induced loss on a ground-satellite link).
	DropLink
	numDropReasons
)

// String names the drop reason.
func (r DropReason) String() string {
	switch r {
	case DropQueue:
		return "queue-full"
	case DropNoRoute:
		return "no-route"
	case DropTTL:
		return "ttl-exceeded"
	case DropNoHandler:
		return "no-handler"
	case DropLink:
		return "link-loss"
	}
	return "unknown"
}

// Config sets the network-wide link and queue parameters. The paper's
// experiments use uniform rates across ISLs and GSLs (10 Mbit/s in the path
// studies, swept in the scalability study) and 100-packet drop-tail queues.
type Config struct {
	ISLRateBps   float64 // inter-satellite link rate, bits/s
	GSLRateBps   float64 // ground-satellite link rate, bits/s
	QueuePackets int     // drop-tail queue capacity per device, packets
	MaxHops      int     // hop limit; 0 means the default of 64
	// PosQuantum is the satellite-position cache granularity for
	// propagation-delay computation. Positions move < 100 m per 10 ms,
	// i.e. well under a microsecond of delay error. 0 means 10 ms.
	PosQuantum Time

	// RateFor optionally overrides the link rate (bits/s) per directed
	// device. It is consulted once per device at construction time with
	// the owning node and, for ISL devices, the fixed peer (-1 for GSL
	// devices). Returning 0 keeps the uniform default. This implements
	// the paper's "heterogeneity in terms of link capacities is easy to
	// accommodate" extension — e.g. newer satellites with faster ISLs.
	RateFor func(node, peer int) float64

	// LossModel optionally drops packets in flight on a link: it is
	// consulted once per transmission with the endpoints and the send
	// time, and returning true discards the packet after serialization
	// (the receiver simply never sees it). It enables the paper's
	// weather/reliability future-work experiments, e.g. rain fade on
	// GSLs in a geographic region. It must be a pure function of its
	// arguments: determinism rests on its answer depending only on
	// (from, to, at).
	LossModel func(from, to int, at Time) bool
}

// DefaultConfig returns the paper's default experiment parameters.
func DefaultConfig() Config {
	return Config{
		ISLRateBps:   10e6,
		GSLRateBps:   10e6,
		QueuePackets: 100,
		MaxHops:      64,
		PosQuantum:   10 * Millisecond,
	}
}

// WithDefaults fills zero-valued fields with the paper's defaults and
// returns the result. NewNetwork applies it automatically; callers that
// need to read effective values before construction may call it directly.
func (c Config) WithDefaults() Config {
	if c.ISLRateBps == 0 {
		c.ISLRateBps = 10e6
	}
	if c.GSLRateBps == 0 {
		c.GSLRateBps = 10e6
	}
	if c.QueuePackets == 0 {
		c.QueuePackets = 100
	}
	if c.MaxHops == 0 {
		c.MaxHops = 64
	}
	if c.PosQuantum == 0 {
		c.PosQuantum = 10 * Millisecond
	}
	return c
}

// TransmitInfo describes one link transmission, for monitoring hooks. Packet
// is valid only until the hook returns (see Packet).
type TransmitInfo struct {
	From, To int // node ids
	Packet   *Packet
	Start    Time // serialization start
	Arrive   Time // arrival at the receiving node
}

// posBucket is one entry of an engine's position cache: the node positions
// of one PosQuantum bucket (-1: none yet).
type posBucket struct {
	bucket Time
	pos    []geom.Vec3
}

// netState is the network's mutable per-run state: forwarding state and the
// count of scheduled installs executed, the position cache, and the
// delivery/drop counters. The Simulator embeds it, next to the clock the
// packet path reads with it.
type netState struct {
	ft       *routing.ForwardingTable
	installs int
	// posRing caches node positions per bucket, bucket b in slot b mod
	// len (a power of two). A departure is fixed when its packet is enqueued,
	// so delays are asked for up to a full queue's drain time ahead of the
	// clock and out of order across devices; the ring grows to the span of
	// buckets in use and reuses a slot once its bucket is behind the clock,
	// so each bucket is still propagated exactly once (posFills counts).
	posRing  []posBucket
	posFills uint64

	delivered uint64
	drops     [numDropReasons]uint64
}

// departure is one packet waiting in a device's queue: when its
// serialization starts — the completion of the packet ahead of it — and the
// bytes the transmit counters take at that moment.
type departure struct {
	start Time
	size  int32
}

// device is a transmitting interface with a fixed-capacity drop-tail FIFO,
// stored struct-of-arrays in Network.devs and addressed by integer handle;
// its ring lives in the shared Network.rings slab.
//
// The device is non-preemptive, fixed-rate, and its packets' next hops are
// resolved at enqueue (a later forwarding-state change does not reroute
// queued packets, matching loss-free handoff), so enqueue fixes everything
// about a packet's stay: start = max(now, busyUntil), done = start + size/rate.
// The packet itself leaves with the arrival event enqueue schedules; what the
// device keeps is the ring of the starts still ahead of the clock, which is
// its queue occupancy. Nothing executes at a start or a completion: the ring
// is brought up to the engine's clock (retire) wherever occupancy or
// the counters are read — the drop-tail test, maxQueue, QueueLen,
// DeviceStats — with same-instant ties settled by Simulator.departed.
//
// The device also memoizes its hop timing, each value a pure function of its
// key: the serialization time of the last packet size (serialization) and the
// propagation delay toward the last target in the last position bucket
// (Network.propagation). The fields are packed to keep the device at 80 bytes.
type device struct {
	node int32
	// fixedPeer is the ISL peer node id, or -1 for the GSL device.
	fixedPeer int32
	rateBps   float64
	// head is the ring read position and waiting the occupancy: packets
	// accepted whose serialization has not started as of the last retire.
	head    int32
	waiting int32
	// busyUntil is when the last accepted packet completes (-1: none yet).
	// The device is serializing until that departure is behind the clock.
	busyUntil Time

	// Statistics: packets and bytes whose serialization has started as of
	// the last retire, and the peak occupancy an arriving packet has seen,
	// itself included.
	txPackets uint64
	txBytes   uint64
	maxQueue  int32

	// serTime is the serialization time of serSize bytes (-1: none yet).
	serSize int32
	serTime Time
	// propDelay is the delay toward node propTarget from a transmission
	// completing in position bucket propBucket (-1: none yet). A delay past
	// 2^31 ns is not memoized.
	propTarget int32
	propDelay  int32
	propBucket Time
}

// serialization returns how long the device takes to put size bytes on the
// wire: at least a nanosecond, so that a device completes at most one
// transmission per instant and evTransmitDone's key (the device) is unique.
// The miss is out of line so that the hit inlines.
func (d *device) serialization(size int32) Time {
	if size != d.serSize {
		d.serialize(size)
	}
	return d.serTime
}

//go:noinline
func (d *device) serialize(size int32) {
	d.serSize, d.serTime = size, max(1, Seconds(float64(size)*8/d.rateBps))
}

// Network is the packet-forwarding fabric over a Topology: one node per
// satellite and ground station, a point-to-point device pair per ISL, and
// one shared GSL device per node (the paper's default of one GSL network
// device per satellite and ground station, able to send to any other GSL
// device the forwarding plan names). All per-node structures are flat
// arrays indexed by integer handles: devices live in devs (per node: the
// GSL device, then ISL devices in ascending peer order), with the ISL
// adjacency in CSR form (islIdx/islPeer/islDev) and every device ring in
// one rings slab.
type Network struct {
	Sim  *Simulator
	Topo *routing.Topology

	cfg Config

	devs    []device
	rings   []departure          // len(devs) * cfg.QueuePackets, ring i at [i*Q, (i+1)*Q)
	gslDev  []int32              // node -> its GSL device handle
	islIdx  []int32              // CSR offsets into islPeer/islDev, len NumNodes+1
	islPeer []int32              // ISL neighbor node ids, ascending per node
	islDev  []int32              // device handle per ISL neighbor
	flows   []map[uint32]Handler // per node; made on a ground station by its first RegisterFlow
	pktSeq  []uint32             // per-node packet ID counters

	onTransmit func(TransmitInfo)
	onDrop     func(at Time, node int, pkt *Packet, reason DropReason)
	onDeliver  func(at Time, gs int, pkt *Packet)

	// The forwarding-update schedule (ScheduleInstalls): installAt[i] is the
	// instant of install event i, and tables delivers each event's table in
	// that order. Sim.st.installs counts the events executed, so it is also
	// the index of the next one.
	installAt []Time
	tables    <-chan *routing.ForwardingTable
}

// DeviceStats is a snapshot of one device's counters.
type DeviceStats struct {
	Node     int
	Peer     int // ISL peer node, or -1 for the GSL device
	RateBps  float64
	TxPkts   uint64
	TxBytes  uint64
	MaxQueue int // peak queue occupancy observed
}

// DeviceStats returns per-device counters for every device in the network,
// satellites first (each node's GSL device, then its ISL devices in
// ascending peer order — the construction order of devs). Useful for
// post-run diagnostics: hot devices, buffer headroom, and rate utilization.
// TxPkts and TxBytes count serializations started as of the engine's clock;
// like QueueLen it is for use between runs or from the engine's events.
func (n *Network) DeviceStats() []DeviceStats {
	out := make([]DeviceStats, len(n.devs))
	for i := range n.devs {
		d := &n.devs[i]
		n.retire(n.Sim, int32(i))
		out[i] = DeviceStats{
			Node: int(d.node), Peer: int(d.fixedPeer), RateBps: d.rateBps,
			TxPkts: d.txPackets, TxBytes: d.txBytes, MaxQueue: int(d.maxQueue),
		}
	}
	return out
}

// NewNetwork builds the node and device fabric for a topology.
func NewNetwork(s *Simulator, topo *routing.Topology, cfg Config) (*Network, error) {
	cfg = cfg.WithDefaults()
	if cfg.ISLRateBps < 0 || cfg.GSLRateBps < 0 {
		return nil, fmt.Errorf("sim: negative link rate")
	}
	if cfg.QueuePackets < 0 {
		return nil, fmt.Errorf("sim: negative queue capacity")
	}
	if cfg.MaxHops < 0 {
		return nil, fmt.Errorf("sim: negative hop limit")
	}
	if cfg.PosQuantum < 0 {
		return nil, fmt.Errorf("sim: negative position quantum")
	}
	rateFor := func(node, peer int, fallback float64) float64 {
		if cfg.RateFor != nil {
			if r := cfg.RateFor(node, peer); r > 0 {
				return r
			}
		}
		return fallback
	}
	numNodes := topo.NumNodes()
	n := &Network{Sim: s, Topo: topo, cfg: cfg}
	s.net = n

	// Every ISL is two directed devices, plus one GSL device per node. Node
	// i's ISL peers, ascending, are islPeer[islIdx[i]:islIdx[i+1]]: a
	// degree-counting pass sizes the offsets, a second pass places each
	// peer (advancing islIdx[i] as node i's cursor, which leaves it at node
	// i+1's offset, so a shift restores the offsets).
	isls := 2 * len(topo.Constellation.ISLs)
	n.islIdx = make([]int32, numNodes+1)
	for _, isl := range topo.Constellation.ISLs {
		n.islIdx[isl.A+1]++
		n.islIdx[isl.B+1]++
	}
	for i := 0; i < numNodes; i++ {
		n.islIdx[i+1] += n.islIdx[i]
	}
	n.islPeer = make([]int32, isls)
	for _, isl := range topo.Constellation.ISLs {
		n.islPeer[n.islIdx[isl.A]] = int32(isl.B)
		n.islIdx[isl.A]++
		n.islPeer[n.islIdx[isl.B]] = int32(isl.A)
		n.islIdx[isl.B]++
	}
	copy(n.islIdx[1:], n.islIdx[:numNodes])
	n.islIdx[0] = 0
	for v := 0; v < numNodes; v++ {
		peers := n.islPeer[n.islIdx[v]:n.islIdx[v+1]]
		for i := 1; i < len(peers); i++ { // insertion sort: tiny lists
			for j := i; j > 0 && peers[j-1] > peers[j]; j-- {
				peers[j-1], peers[j] = peers[j], peers[j-1]
			}
		}
	}

	n.devs = make([]device, 0, numNodes+isls)
	n.islDev = make([]int32, 0, isls)
	n.gslDev = make([]int32, numNodes)
	n.flows = make([]map[uint32]Handler, numNodes)
	n.pktSeq = make([]uint32, numNodes)
	for i := 0; i < numNodes; i++ {
		n.gslDev[i] = int32(len(n.devs))
		n.devs = append(n.devs, device{node: int32(i), fixedPeer: -1, rateBps: rateFor(i, -1, cfg.GSLRateBps), busyUntil: -1, serSize: -1, propBucket: -1})
		for _, p := range n.islPeer[n.islIdx[i]:n.islIdx[i+1]] {
			n.islDev = append(n.islDev, int32(len(n.devs)))
			n.devs = append(n.devs, device{node: int32(i), fixedPeer: p, rateBps: rateFor(i, int(p), cfg.ISLRateBps), busyUntil: -1, serSize: -1, propBucket: -1})
		}
	}
	n.rings = make([]departure, len(n.devs)*cfg.QueuePackets)
	s.events.devices(n.numFIFOs())
	return n, nil
}

// numFIFOs is how many in-flight FIFOs an engine's event queue keeps for
// this network: per device, one for the arrivals it produces (FIFO di) and
// one for its observed transmit completions (txFIFO). Each sequence ascends
// on its own; interleaved they would not.
func (n *Network) numFIFOs() int { return 2 * len(n.devs) }

// txFIFO is the event-queue FIFO of device di's transmit completions.
func (n *Network) txFIFO(di int32) int32 { return int32(len(n.devs)) + di }

// Config returns the network's configuration (with defaults applied).
func (n *Network) Config() Config { return n.cfg }

// SetTransmitHook registers fn to observe every link transmission, at the
// moment its last bit is on the wire. Pass nil to disable. Used by the
// utilization experiments (Figs 10, 14, 15). The TransmitInfo's Packet is
// valid only until fn returns (see Packet). Install it before the traffic it
// should see: a packet already accepted by a device when the hook arrives
// leaves unobserved (its departure was fixed, with no event, at enqueue).
func (n *Network) SetTransmitHook(fn func(TransmitInfo)) { n.onTransmit = fn }

// SetDropHook registers fn to observe every packet drop with the drop time,
// the node where it occurred, and the reason. Pass nil to disable. pkt is
// valid only until fn returns (see Packet).
func (n *Network) SetDropHook(fn func(at Time, node int, pkt *Packet, reason DropReason)) {
	n.onDrop = fn
}

// SetDeliverHook registers fn to observe every packet handed to a transport
// handler at its destination ground station, with the delivery time. Pass
// nil to disable. pkt is valid only until fn returns (see Packet).
func (n *Network) SetDeliverHook(fn func(at Time, gs int, pkt *Packet)) { n.onDeliver = fn }

// drop counts a drop and notifies the hook. The drop ends the packet's
// journey: its record i is released and the caller must not touch it again.
func (n *Network) drop(s *Simulator, node, i int32, r *record, reason DropReason) {
	s.st.drops[reason]++
	if n.onDrop != nil {
		n.onDrop(s.now, int(node), &r.pkt, reason)
	}
	s.events.release(i, r)
}

// InstallForwarding replaces the network-wide forwarding state and returns
// the table it displaced (nil on the first install). In-flight and
// already-queued packets continue to their previously resolved next hops
// (the paper's loss-free handoff assumption); only subsequent forwarding
// decisions use the new state. Because next hops are resolved at enqueue
// time and travel with each queued packet, the displaced table is never
// consulted again — the return value is the engine's recycle point for
// pooled table arenas (routing.ForwardingTable.Release).
func (n *Network) InstallForwarding(ft *routing.ForwardingTable) *routing.ForwardingTable {
	prev := n.Sim.st.ft
	n.Sim.st.ft = ft
	return prev
}

// ScheduleInstalls schedules one forwarding update per instant of at
// (ascending, none before Now): the install event for at[i] takes the i-th
// table off tables, installs it ahead of every packet event of that instant,
// and Releases the table it displaces. This is the one way periodic
// forwarding state reaches the network; core wires its precomputation
// pipeline here. It may be called once
// per network, before the run starts.
func (n *Network) ScheduleInstalls(at []Time, tables <-chan *routing.ForwardingTable) {
	if n.tables != nil {
		panic("sim: forwarding installs already scheduled")
	}
	s := n.Sim
	last := s.now
	for i, t := range at {
		if t < last {
			panic(fmt.Sprintf("sim: install instant %v out of order or in the past (after %v)", t, last))
		}
		last = t
		s.events.push(event{at: t, owner: -1, kind: evInstall, key: uint64(i)})
	}
	n.installAt = at
	n.tables = tables
}

// Installs returns how many scheduled forwarding updates have executed.
func (n *Network) Installs() int { return n.Sim.st.installs }

// installEvent is the evInstall dispatch. It recycles the displaced table
// and takes the instant's table straight off the source — in that order, so
// the engine never holds two tables at once and a source with a fixed stock
// of them (core's pipeline) can count on it; nothing forwards between the
// two statements.
func (n *Network) installEvent(s *Simulator, idx int) {
	if check.Enabled {
		check.Assert(idx == s.st.installs, "install event %d executed as install number %d", idx, s.st.installs)
	}
	s.st.ft.Release()
	s.st.ft = <-n.tables
	s.st.installs++
}

// gsNode returns the node id of ground station gs and panics when gs is not
// a station index. A station index is the one integer that enters the
// network from outside; Clock, RegisterFlow and UnregisterFlow pass theirs
// through here, so by the time a flow exists no timer or handler is
// bound to a satellite or to a node that does not exist.
func (n *Network) gsNode(gs int, what string) int32 {
	if gs < 0 || gs >= n.Topo.NumGS() {
		panic(fmt.Sprintf("sim: %s: ground station %d outside [0, %d)", what, gs, n.Topo.NumGS()))
	}
	return int32(n.Topo.GSNode(gs))
}

// RegisterFlow attaches a transport handler for flowID at ground station
// gs. A gs that is not a station index panics, and so does registering a
// duplicate flow id on the same station: flow ids must be unique per
// endpoint.
func (n *Network) RegisterFlow(gs int, flowID uint32, h Handler) {
	node := n.gsNode(gs, "RegisterFlow")
	if _, dup := n.flows[node][flowID]; dup {
		panic(fmt.Sprintf("sim: duplicate flow %d at GS %d", flowID, gs))
	}
	if n.flows[node] == nil { // a station's table is made with its first flow
		n.flows[node] = map[uint32]Handler{}
	}
	n.flows[node][flowID] = h
}

// UnregisterFlow removes a flow handler. It panics when gs is not a station
// index.
func (n *Network) UnregisterFlow(gs int, flowID uint32) {
	delete(n.flows[n.gsNode(gs, "UnregisterFlow")], flowID)
}

// Send injects a packet at its source ground station. The packet is
// forwarded per the current forwarding state; the returned packet ID
// identifies it in traces. IDs encode (source node, per-node sequence), so
// an ID is a function of the sending station's history alone.
//
// srcGS and dstGS must be ground-station indices in [0, Topo.NumGS()). Send
// is the per-packet path and does not check them: before it sends, a
// transport takes its Clock at the source and registers a handler at the
// destination, and those calls panic on an index outside the range.
func (n *Network) Send(srcGS, dstGS int, flowID uint32, size int, payload any) uint64 {
	return n.SendHeader(srcGS, dstGS, flowID, size, 0, 0, 0, payload)
}

// SendHeader is Send with the transport header words set: seq, ack and flags
// travel by value in the packet's Seq, Ack and Flags, so a fixed-size header
// costs no allocation. payload carries only what does not fit them.
func (n *Network) SendHeader(srcGS, dstGS int, flowID uint32, size int, seq, ack int64, flags uint8, payload any) uint64 {
	node := int32(n.Topo.GSNode(srcGS))
	s := n.Sim
	n.pktSeq[node]++
	id := uint64(node)<<32 | uint64(n.pktSeq[node])
	i, r := s.events.take()
	r.pkt = Packet{
		ID:      id,
		SentAt:  s.now,
		Seq:     seq,
		Ack:     ack,
		Payload: payload,
		FlowID:  flowID,
		Size:    int32(size),
		SrcGS:   int32(srcGS),
		DstGS:   int32(dstGS),
		Flags:   flags,
	}
	n.forward(s, node, i, r) // links the record on, or ends the journey and releases it
	return id
}

// Delivered returns the count of packets handed to transport handlers.
func (n *Network) Delivered() uint64 { return n.Sim.st.delivered }

// Drops returns the number of packets dropped for the given reason.
func (n *Network) Drops(r DropReason) uint64 { return n.Sim.st.drops[r] }

// TotalDrops returns all drops.
func (n *Network) TotalDrops() uint64 {
	var total uint64
	for _, d := range n.Sim.st.drops {
		total += d
	}
	return total
}

// positionsAt returns the engine's cached node positions for the quantized
// instant containing t, which must not lie behind the engine's clock.
func (n *Network) positionsAt(s *Simulator, t Time) []geom.Vec3 {
	bucket := t / n.cfg.PosQuantum
	if ring := s.st.posRing; len(ring) > 0 {
		if e := &ring[int(bucket)&(len(ring)-1)]; e.bucket == bucket {
			return e.pos
		}
	}
	return n.fillPositions(s, bucket)
}

// fillPositions is positionsAt's miss path: propagate the bucket into its
// slot, doubling the ring for as long as the slot holds a bucket the clock
// has not passed (two live buckets a ring length apart).
func (n *Network) fillPositions(s *Simulator, bucket Time) []geom.Vec3 {
	st := &s.st
	live := s.now / n.cfg.PosQuantum
	for {
		if len(st.posRing) > 0 {
			if e := &st.posRing[int(bucket)&(len(st.posRing)-1)]; e.bucket < live {
				e.pos = n.Topo.NodePositions(Time(bucket*n.cfg.PosQuantum).Seconds(), e.pos)
				e.bucket = bucket
				st.posFills++
				return e.pos
			}
		}
		grown := make([]posBucket, max(1, 2*len(st.posRing)))
		for i := range grown {
			grown[i].bucket = -1
		}
		for _, e := range st.posRing {
			if e.pos != nil {
				grown[int(e.bucket)&(len(grown)-1)] = e
			}
		}
		st.posRing = grown
	}
}

// propagationDelay returns the one-way propagation delay between two nodes
// at time t, now or ahead of the engine's clock.
func (n *Network) propagationDelay(s *Simulator, a, b int32, t Time) Time {
	pos := n.positionsAt(s, t)
	return Seconds(pos[a].Distance(pos[b]) / geom.SpeedOfLight)
}

// propagation is propagationDelay from device d's node to target for a
// transmission completing at t, through the device's memo: within a position
// bucket the delay toward one target is constant.
func (n *Network) propagation(s *Simulator, d *device, target int32, t Time) Time {
	bucket := t / n.cfg.PosQuantum
	if d.propTarget == target && d.propBucket == bucket {
		return Time(d.propDelay)
	}
	delay := n.propagationDelay(s, d.node, target, t)
	if delay <= math.MaxInt32 {
		d.propTarget, d.propDelay, d.propBucket = target, int32(delay), bucket
	}
	return delay
}

// forward routes the packet of taken record i, held by node, toward its
// destination GS.
func (n *Network) forward(s *Simulator, node, i int32, r *record) {
	if s.st.ft == nil {
		panic("sim: no forwarding state installed")
	}
	if int(r.pkt.Hops) >= n.cfg.MaxHops {
		n.drop(s, node, i, r, DropTTL)
		return
	}
	nh := s.st.ft.NextHop(int(node), int(r.pkt.DstGS))
	if nh < 0 {
		n.drop(s, node, i, r, DropNoRoute)
		return
	}
	dev := n.gslDev[node]
	for i := n.islIdx[node]; i < n.islIdx[node+1]; i++ {
		if n.islPeer[i] == nh {
			dev = n.islDev[i]
			break
		}
	}
	n.enqueue(s, dev, i, r, nh)
}

// retire brings device di's ring up to the clock of s: every waiting packet
// whose start the engine has passed has begun serializing, so it leaves the occupancy and enters the transmit counters.
func (n *Network) retire(s *Simulator, di int32) {
	d := &n.devs[di]
	q := int32(n.cfg.QueuePackets)
	for d.waiting > 0 {
		e := n.rings[di*q+d.head] // head of device di's ring
		if !s.departed(e.start, d.node, di) {
			break
		}
		d.txPackets++
		d.txBytes += uint64(e.size)
		if d.head++; d.head == q {
			d.head = 0
		}
		d.waiting--
	}
	if check.Enabled {
		check.Assert(d.waiting >= 0 && d.waiting <= q,
			"device %d queue occupancy %d outside [0, %d]", d.node, d.waiting, q)
		check.Assert(d.waiting == 0 || d.busyUntil >= s.now,
			"device %d holds %d waiting packets at %v but is busy only until %v", d.node, d.waiting, s.now, d.busyUntil)
	}
}

// enqueue hands the packet of taken record i to the device: drop-tail
// against the occupancy as of now, then the whole hop at once —
// serialization start and end, link loss, propagation at the moment the last
// bit leaves — and the record linked again as the arrival at the target.
// Only a transmission somebody observes gets an event at its completion
// (evTransmitDone), which then schedules the arrival itself, as every
// transmission once did.
func (n *Network) enqueue(s *Simulator, di, i int32, r *record, target int32) {
	d := &n.devs[di]
	pkt := &r.pkt
	q := int32(n.cfg.QueuePackets)
	n.retire(s, di)
	start, occupancy := s.now, int32(1)
	if s.departed(d.busyUntil, d.node, di) {
		// Idle: serialization starts on the spot.
		d.txPackets++
		d.txBytes += uint64(pkt.Size)
	} else {
		if d.waiting == q {
			n.drop(s, d.node, i, r, DropQueue)
			return
		}
		start = d.busyUntil
		tail := di*q + (d.head+d.waiting)%q // tail of device di's ring
		if check.Enabled {
			check.Assert(d.waiting == 0 || n.rings[di*q+(d.head+d.waiting-1)%q].start <= start,
				"device %d: departure at %v queued behind a later one", d.node, start)
		}
		n.rings[tail] = departure{start: start, size: pkt.Size}
		d.waiting++
		occupancy = d.waiting
	}
	if occupancy > d.maxQueue {
		d.maxQueue = occupancy
	}
	done := start + d.serialization(pkt.Size)
	d.busyUntil = done

	lost := n.cfg.LossModel != nil && n.cfg.LossModel(int(d.node), int(target), done)
	if lost || n.onTransmit != nil {
		pkt.txTarget, pkt.txLost = target, lost
		r.event = event{at: done, owner: d.node, kind: evTransmitDone, key: uint64(di)}
		s.events.linkFlight(n.txFIFO(di), i, r)
		return
	}
	n.deliverTo(s, di, target, done+n.propagation(s, d, target, done), i, r)
}

// transmitDone is the evTransmitDone dispatch of record i, the completion of
// an observed transmission: emit it, and drop the packet the loss model
// discarded or send the survivor on toward its target.
func (n *Network) transmitDone(s *Simulator, di, i int32, r *record) {
	d := &n.devs[di]
	pkt := &r.pkt
	target, done := pkt.txTarget, s.now
	arrive := done + n.propagation(s, d, target, done)
	if n.onTransmit != nil {
		// enqueue set done to start plus exactly this.
		start := done - d.serialization(pkt.Size)
		n.onTransmit(TransmitInfo{From: int(d.node), To: int(target), Packet: pkt, Start: start, Arrive: arrive})
	}
	if pkt.txLost {
		n.drop(s, d.node, i, r, DropLink)
		return
	}
	n.deliverTo(s, di, target, arrive, i, r)
}

// deliverTo schedules the arrival at its target node of the packet in record
// i that device di puts on the wire: the record linked into the device's
// in-flight FIFO.
func (n *Network) deliverTo(s *Simulator, di, target int32, at Time, i int32, r *record) {
	r.event = event{at: at, owner: target, kind: evReceive, key: r.pkt.ID}
	s.events.linkFlight(di, i, r)
}

// receive is the evReceive dispatch of record i: packet arrival at a node —
// local delivery at the destination ground station, forwarding everywhere
// else.
func (n *Network) receive(s *Simulator, node, i int32, r *record) {
	pkt := &r.pkt
	pkt.Hops++
	if n.Topo.IsGS(int(node)) && n.Topo.GSIndex(int(node)) == int(pkt.DstGS) {
		h := n.flows[node][pkt.FlowID]
		if h == nil {
			n.drop(s, node, i, r, DropNoHandler)
			return
		}
		s.st.delivered++
		if n.onDeliver != nil {
			n.onDeliver(s.now, int(pkt.DstGS), pkt)
		}
		h(pkt)
		s.events.release(i, r)
		return
	}
	n.forward(s, node, i, r)
}

// QueueLen reports the queue occupancy of the device from node `from`
// toward node `to` (an ISL device if the pair is an ISL, otherwise the GSL
// device of `from`): the packets waiting behind the one being serialized, as
// of the engine's clock. Useful for tests and instrumentation, between runs
// or from the engine's events.
func (n *Network) QueueLen(from, to int) int {
	di := n.gslDev[from]
	for i := n.islIdx[from]; i < n.islIdx[from+1]; i++ {
		if n.islPeer[i] == int32(to) {
			di = n.islDev[i]
			break
		}
	}
	n.retire(n.Sim, di)
	return int(n.devs[di].waiting)
}
