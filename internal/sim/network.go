package sim

import (
	"fmt"

	"hypatia/internal/check"
	"hypatia/internal/geom"
	"hypatia/internal/routing"
)

// Packet is a simulated network packet. Size covers everything serialized on
// the wire (payload plus headers). Seq, Ack and Flags are the transport's
// fixed header words, carried by value; Payload carries anything of variable
// length beyond them (TCP's SACK blocks). The network reads none of the four.
//
// Lifetime: the network owns every Packet and reuses the record once the
// packet's journey ends (delivered or dropped). A *Packet handed to a Handler
// or to a transmit, drop or deliver hook is valid only until that callback
// returns; a callback that needs the packet later copies the value. Builds
// with the hypatia_checks tag poison a recycled record (ID ^0, Hops -1,
// Size -1) so a retained pointer fails loudly.
//
// The fields are ordered (and Size and Hops are 32-bit) to keep the record in
// the allocator's 96-byte size class: in the 112-byte class udp_perm100 read
// a 1.04× median slowdown over six pairs and 4 % more allocation (DESIGN.md,
// "Transport state by value"). TestPacketFitsItsSizeClass pins it.
type Packet struct {
	ID     uint64
	SrcGS  int  // source ground-station index
	DstGS  int  // destination ground-station index
	SentAt Time // time the packet entered the network at its source

	Seq, Ack int64 // transport header words

	Payload any

	FlowID uint32 // demultiplexing key at the destination node
	Size   int32  // bytes on the wire
	Hops   int32  // hops traversed so far

	// The hop in progress, for the evTransmitDone of an observed
	// transmission (a packet is in one device at a time): serialization
	// start, next-hop node, and the loss model's verdict. Stale otherwise.
	txTarget int32
	txStart  Time
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
	// Positions being piecewise-constant per quantum also makes the sharded
	// engine's lookahead bound exact rather than approximate (sharded.go).
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
	// arguments: sharded runs consult it concurrently from shard
	// goroutines, and determinism rests on its answer depending only on
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

// netState is the per-engine slice of mutable simulation state: forwarding
// state and the count of scheduled installs executed, the position cache,
// delivery/drop counters, and — in sharded runs — the outboxes, hook journal,
// and table plumbing for one shard. Each Simulator embeds one; the serial
// engine's netState on the root Simulator is the whole network state, while
// a sharded run gives each shard engine its own and folds counters back into
// the root afterwards.
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

	// freePkts holds the records of packets whose journey ended on this
	// engine, for Send to reuse.
	freePkts []*Packet

	// Sharded-run fields (unused on the root engine in serial runs).
	// outbox[k] collects handoffs destined for shard k during a window; the
	// coordinator drains it between windows. journal accumulates deferred
	// hook emissions for the post-run merge. pendingTables are per-shard
	// forwarding-table clones staged by the coordinator for this shard's
	// upcoming install events; freed returns displaced clones for reuse.
	journaling    bool
	outbox        [][]handoff
	journal       []journalRec
	pendingTables []*routing.ForwardingTable
	freed         []*routing.ForwardingTable
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
// its ring lives in the shared Network.rings slab. Each device is owned by
// the engine executing its node's events — the serial loop, or exactly one
// shard in a sharded run.
//
// The device is non-preemptive, fixed-rate, and its packets' next hops are
// resolved at enqueue (a later forwarding-state change does not reroute
// queued packets, matching loss-free handoff), so enqueue fixes everything
// about a packet's stay: start = max(now, busyUntil), done = start + size/rate.
// The packet itself leaves with the arrival event enqueue schedules; what the
// device keeps is the ring of the starts still ahead of the clock, which is
// its queue occupancy. Nothing executes at a start or a completion: the ring
// is brought up to the owning engine's clock (retire) wherever occupancy or
// the counters are read — the drop-tail test, maxQueue, QueueLen,
// DeviceStats — with same-instant ties settled by Simulator.departed.
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
	flows   []map[uint32]Handler // per node; non-nil only on ground stations
	pktSeq  []uint32             // per-node packet ID counters

	// Sharded-run routing: nil outside RunSharded. shardOf maps node ->
	// shard index; sims holds the shard engines (sharded.go).
	shardOf []int32
	sims    []*Simulator

	// Colocation constraints for sharding: a union-find over ground-station
	// indices. Flows that share state across two stations (every transport
	// here) keep their endpoints in one shard so transport callbacks stay
	// single-engine; RegisterFlow unions automatically.
	coloc  []int32
	flowGS map[uint32]int32

	onTransmit func(TransmitInfo)
	onDrop     func(at Time, node int, pkt *Packet, reason DropReason)
	onDeliver  func(at Time, gs int, pkt *Packet)

	// The forwarding-update schedule (ScheduleInstalls): installAt[i] is the
	// instant of install event i, and tables delivers each event's table in
	// that order. An engine's st.installs counts the events it has executed,
	// so it is also the index of the next one.
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
// TxPkts and TxBytes count serializations started as of the clock of the
// engine that owns the device's node; like QueueLen it is for use between
// runs or from that engine's events.
func (n *Network) DeviceStats() []DeviceStats {
	out := make([]DeviceStats, len(n.devs))
	for i := range n.devs {
		d := &n.devs[i]
		n.retire(n.simFor(d.node), int32(i))
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

	adj := make([][]int32, numNodes)
	for _, isl := range topo.Constellation.ISLs {
		adj[isl.A] = append(adj[isl.A], int32(isl.B))
		adj[isl.B] = append(adj[isl.B], int32(isl.A))
	}
	for _, peers := range adj {
		for i := 1; i < len(peers); i++ { // insertion sort: tiny lists
			for j := i; j > 0 && peers[j-1] > peers[j]; j-- {
				peers[j-1], peers[j] = peers[j], peers[j-1]
			}
		}
	}

	n.gslDev = make([]int32, numNodes)
	n.islIdx = make([]int32, numNodes+1)
	n.flows = make([]map[uint32]Handler, numNodes)
	n.pktSeq = make([]uint32, numNodes)
	for i := 0; i < numNodes; i++ {
		n.gslDev[i] = int32(len(n.devs))
		n.devs = append(n.devs, device{node: int32(i), fixedPeer: -1, rateBps: rateFor(i, -1, cfg.GSLRateBps), busyUntil: -1})
		for _, p := range adj[i] {
			n.islPeer = append(n.islPeer, p)
			n.islDev = append(n.islDev, int32(len(n.devs)))
			n.devs = append(n.devs, device{node: int32(i), fixedPeer: p, rateBps: rateFor(i, int(p), cfg.ISLRateBps), busyUntil: -1})
		}
		n.islIdx[i+1] = int32(len(n.islPeer))
		if topo.IsGS(i) {
			n.flows[i] = map[uint32]Handler{}
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

// simFor returns the engine that owns a node's events: the root engine, or
// the node's shard engine during a sharded run.
func (n *Network) simFor(node int32) *Simulator {
	if n.shardOf == nil {
		return n.Sim
	}
	return n.sims[n.shardOf[node]]
}

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

// drop counts a drop and notifies the hook (directly, or via the shard
// journal for post-run replay in canonical order). The drop ends the
// packet's journey: its record is recycled and the caller must not touch it
// again.
func (n *Network) drop(s *Simulator, node int32, pkt *Packet, reason DropReason) {
	s.st.drops[reason]++
	if n.onDrop != nil {
		if s.st.journaling {
			s.st.journal = append(s.st.journal, journalRec{
				key: s.emissionKey(), jk: jDrop, at: s.now, a: node, reason: reason, pkt: *pkt,
			})
		} else {
			n.onDrop(s.now, int(node), pkt, reason)
		}
	}
	s.recycle(pkt)
}

// recycle returns the record of a packet whose journey has ended to the
// engine's free list.
func (s *Simulator) recycle(pkt *Packet) {
	if check.Enabled {
		pkt.ID, pkt.Hops, pkt.Size = ^uint64(0), -1, -1
	}
	s.st.freePkts = append(s.st.freePkts, pkt)
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
// forwarding state reaches the network, on the serial and the sharded loop
// alike; core wires its precomputation pipeline here. It may be called once
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
		// The instant index is both key and seq, so every engine of a
		// sharded run orders its copy of the event identically.
		s.events.push(event{at: t, owner: -1, kind: evInstall, key: uint64(i), seq: uint64(i)})
	}
	n.installAt = at
	n.tables = tables
}

// Installs returns how many scheduled forwarding updates have executed.
func (n *Network) Installs() int { return n.Sim.st.installs }

// installEvent is the evInstall dispatch. The serial loop recycles the
// displaced table and takes the instant's table straight off the source —
// in that order, so the engine never holds two tables at once and a source
// with a fixed stock of them (core's pipeline) can count on it; nothing
// forwards between the two statements. A shard engine installs the clone its
// coordinator staged for this instant and retires the displaced clone for
// reuse.
func (n *Network) installEvent(s *Simulator, idx int) {
	if check.Enabled {
		check.Assert(idx == s.st.installs, "install event %d executed as install number %d", idx, s.st.installs)
	}
	prev := s.st.ft
	if n.shardOf == nil {
		prev.Release()
		s.st.ft = <-n.tables
	} else {
		if len(s.st.pendingTables) == 0 {
			panic(fmt.Sprintf("sim: install event %d with no staged forwarding table", idx))
		}
		s.st.ft = s.st.pendingTables[0]
		s.st.pendingTables = s.st.pendingTables[1:]
		if prev != nil {
			s.st.freed = append(s.st.freed, prev)
		}
	}
	s.st.installs++
}

// gsNode returns the node id of ground station gs and panics when gs is not
// a station index. A station index is the one integer that enters the
// network from outside; Clock, RegisterFlow, UnregisterFlow and Colocate pass
// theirs through here, so by the time a flow exists no timer or handler is
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
// endpoint. Registering the same flow id at two stations colocates them for
// sharded runs (the flow's handlers are assumed to share state, so both
// endpoints must execute on one shard).
func (n *Network) RegisterFlow(gs int, flowID uint32, h Handler) {
	node := n.gsNode(gs, "RegisterFlow")
	if _, dup := n.flows[node][flowID]; dup {
		panic(fmt.Sprintf("sim: duplicate flow %d at GS %d", flowID, gs))
	}
	n.flows[node][flowID] = h
	if prev, ok := n.flowGS[flowID]; ok {
		n.colocate(prev, int32(gs))
	} else {
		if n.flowGS == nil {
			n.flowGS = map[uint32]int32{}
		}
		n.flowGS[flowID] = int32(gs)
	}
}

// UnregisterFlow removes a flow handler. It panics when gs is not a station
// index.
func (n *Network) UnregisterFlow(gs int, flowID uint32) {
	delete(n.flows[n.gsNode(gs, "UnregisterFlow")], flowID)
}

// Send injects a packet at its source ground station. The packet is
// forwarded per the current forwarding state; the returned packet ID
// identifies it in traces. IDs encode (source node, per-node sequence) so
// that concurrently executing shards mint identical IDs to a serial run.
//
// srcGS and dstGS must be ground-station indices in [0, Topo.NumGS()). Send
// is the per-packet path and does not check them: before it sends, a
// transport takes its Clock at the source and registers a handler at (or
// colocates with) the destination, and those calls panic on an index outside
// the range.
func (n *Network) Send(srcGS, dstGS int, flowID uint32, size int, payload any) uint64 {
	return n.SendHeader(srcGS, dstGS, flowID, size, 0, 0, 0, payload)
}

// SendHeader is Send with the transport header words set: seq, ack and flags
// travel by value in the packet's Seq, Ack and Flags, so a fixed-size header
// costs no allocation. payload carries only what does not fit them.
func (n *Network) SendHeader(srcGS, dstGS int, flowID uint32, size int, seq, ack int64, flags uint8, payload any) uint64 {
	node := int32(n.Topo.GSNode(srcGS))
	s := n.simFor(node)
	n.pktSeq[node]++
	id := uint64(node)<<32 | uint64(n.pktSeq[node])
	var pkt *Packet
	if k := len(s.st.freePkts) - 1; k >= 0 {
		pkt = s.st.freePkts[k]
		s.st.freePkts = s.st.freePkts[:k]
	} else {
		pkt = new(Packet)
	}
	*pkt = Packet{
		ID:      id,
		SrcGS:   srcGS,
		DstGS:   dstGS,
		SentAt:  s.now,
		Seq:     seq,
		Ack:     ack,
		Payload: payload,
		FlowID:  flowID,
		Size:    int32(size),
		Flags:   flags,
	}
	n.forward(s, node, pkt) // may end the journey and recycle pkt
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

// forward routes a packet held by node toward its destination GS.
func (n *Network) forward(s *Simulator, node int32, pkt *Packet) {
	if s.st.ft == nil {
		panic("sim: no forwarding state installed")
	}
	if int(pkt.Hops) >= n.cfg.MaxHops {
		n.drop(s, node, pkt, DropTTL)
		return
	}
	nh := s.st.ft.NextHop(int(node), pkt.DstGS)
	if nh < 0 {
		n.drop(s, node, pkt, DropNoRoute)
		return
	}
	dev := n.gslDev[node]
	for i := n.islIdx[node]; i < n.islIdx[node+1]; i++ {
		if n.islPeer[i] == nh {
			dev = n.islDev[i]
			break
		}
	}
	n.enqueue(s, dev, pkt, nh)
}

// retire brings device di's ring up to the clock of s, the engine that owns
// its node: every waiting packet whose start the engine has passed has begun
// serializing, so it leaves the occupancy and enters the transmit counters.
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

// enqueue hands the packet to the device: drop-tail against the occupancy
// as of now, then the whole hop at once — serialization start and end, link
// loss, propagation at the moment the last bit leaves — and the arrival at
// the target scheduled directly. Only a transmission somebody observes gets
// an event at its completion (evTransmitDone), which then schedules the
// arrival itself, as every transmission once did.
func (n *Network) enqueue(s *Simulator, di int32, pkt *Packet, target int32) {
	d := &n.devs[di]
	q := int32(n.cfg.QueuePackets)
	n.retire(s, di)
	start, occupancy := s.now, int32(1)
	if s.departed(d.busyUntil, d.node, di) {
		// Idle: serialization starts on the spot.
		d.txPackets++
		d.txBytes += uint64(pkt.Size)
	} else {
		if d.waiting == q {
			n.drop(s, d.node, pkt, DropQueue)
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
	done := start + Seconds(float64(pkt.Size)*8/d.rateBps)
	d.busyUntil = done

	lost := n.cfg.LossModel != nil && n.cfg.LossModel(int(d.node), int(target), done)
	if lost || n.onTransmit != nil {
		pkt.txStart, pkt.txTarget, pkt.txLost = start, target, lost
		s.events.pushFlight(n.txFIFO(di), event{
			at: done, owner: d.node, kind: evTransmitDone,
			key: uint64(di), seq: s.nextSeq(), pkt: pkt,
		})
		return
	}
	n.deliverTo(s, di, target, done+n.propagationDelay(s, d.node, target, done), pkt)
}

// transmitDone is the evTransmitDone dispatch, the completion of an observed
// transmission: emit it, and drop the packet the loss model discarded or send
// the survivor on toward its target (possibly across shards).
func (n *Network) transmitDone(s *Simulator, di int32, pkt *Packet) {
	d := &n.devs[di]
	target, done := pkt.txTarget, s.now
	arrive := done + n.propagationDelay(s, d.node, target, done)
	if n.onTransmit != nil {
		if s.st.journaling {
			s.st.journal = append(s.st.journal, journalRec{
				key: s.emissionKey(), jk: jTransmit, at: pkt.txStart, a: d.node, b: target,
				arrive: arrive, pkt: *pkt,
			})
		} else {
			n.onTransmit(TransmitInfo{From: int(d.node), To: int(target), Packet: pkt, Start: pkt.txStart, Arrive: arrive})
		}
	}
	if pkt.txLost {
		n.drop(s, d.node, pkt, DropLink)
		return
	}
	n.deliverTo(s, di, target, arrive, pkt)
}

// deliverTo schedules the arrival at its target node of a packet device di
// puts on the wire: locally, through the device's in-flight FIFO, when the
// target is on this engine, as a cross-shard handoff otherwise.
func (n *Network) deliverTo(s *Simulator, di, target int32, at Time, pkt *Packet) {
	if n.shardOf != nil {
		if k := n.shardOf[target]; k != s.shard {
			if check.Enabled {
				check.Assert(at >= s.windowEnd,
					"cross-shard handoff at %v inside the lookahead window ending %v", at, s.windowEnd)
			}
			s.st.outbox[k] = append(s.st.outbox[k], handoff{at: at, node: target, pkt: pkt})
			return
		}
	}
	s.events.pushFlight(di, event{at: at, owner: target, kind: evReceive, key: pkt.ID, seq: s.nextSeq(), pkt: pkt})
}

// receive is the evReceive dispatch: packet arrival at a node — local
// delivery at the destination ground station, forwarding everywhere else.
func (n *Network) receive(s *Simulator, node int32, pkt *Packet) {
	pkt.Hops++
	if n.Topo.IsGS(int(node)) && n.Topo.GSIndex(int(node)) == pkt.DstGS {
		h := n.flows[node][pkt.FlowID]
		if h == nil {
			n.drop(s, node, pkt, DropNoHandler)
			return
		}
		s.st.delivered++
		if n.onDeliver != nil {
			if s.st.journaling {
				s.st.journal = append(s.st.journal, journalRec{
					key: s.emissionKey(), jk: jDeliver, at: s.now, a: int32(pkt.DstGS), pkt: *pkt,
				})
			} else {
				n.onDeliver(s.now, pkt.DstGS, pkt)
			}
		}
		h(pkt)
		s.recycle(pkt)
		return
	}
	n.forward(s, node, pkt)
}

// QueueLen reports the queue occupancy of the device from node `from`
// toward node `to` (an ISL device if the pair is an ISL, otherwise the GSL
// device of `from`): the packets waiting behind the one being serialized, as
// of the clock of the engine that owns `from` — in a sharded run that is the
// node's shard, not the root. Useful for tests and instrumentation, between
// runs or from that engine's events.
func (n *Network) QueueLen(from, to int) int {
	di := n.gslDev[from]
	for i := n.islIdx[from]; i < n.islIdx[from+1]; i++ {
		if n.islPeer[i] == int32(to) {
			di = n.islDev[i]
			break
		}
	}
	n.retire(n.simFor(int32(from)), di)
	return int(n.devs[di].waiting)
}
