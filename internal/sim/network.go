package sim

import (
	"fmt"

	"hypatia/internal/check"
	"hypatia/internal/geom"
	"hypatia/internal/routing"
)

// Packet is a simulated network packet. Size covers everything serialized on
// the wire (payload plus headers); Payload carries the transport-layer
// segment and is opaque to the network.
//
// Lifetime: the network owns every Packet and reuses the record once the
// packet's journey ends (delivered or dropped). A *Packet handed to a Handler
// or to a transmit, drop or deliver hook is valid only until that callback
// returns; a callback that needs the packet later copies the value. Builds
// with the hypatia_checks tag poison a recycled record (ID ^0, Hops -1,
// Size -1) so a retained pointer fails loudly.
type Packet struct {
	ID     uint64
	SrcGS  int    // source ground-station index
	DstGS  int    // destination ground-station index
	FlowID uint32 // demultiplexing key at the destination node
	Size   int    // bytes on the wire
	Hops   int    // hops traversed so far
	SentAt Time   // time the packet entered the network at its source

	Payload any
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

// netState is the per-engine slice of mutable simulation state: forwarding
// state and the count of scheduled installs executed, the position cache,
// delivery/drop counters, and — in sharded runs — the outboxes, hook journal,
// and table plumbing for one shard. Each Simulator embeds one; the serial
// engine's netState on the root Simulator is the whole network state, while
// a sharded run gives each shard engine its own and folds counters back into
// the root afterwards.
type netState struct {
	ft        *routing.ForwardingTable
	installs  int
	pos       []geom.Vec3
	posBucket Time

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

// queued is one packet awaiting transmission along with its concrete
// next-hop target (resolved at enqueue time; a later forwarding-state change
// does not reroute already queued packets, matching loss-free handoff).
type queued struct {
	pkt    *Packet
	target int32
}

// device is a transmitting interface with a fixed-capacity drop-tail FIFO,
// stored struct-of-arrays in Network.devs and addressed by integer handle;
// its ring lives in the shared Network.rings slab. Each device is owned by
// the engine executing its node's events — the serial loop, or exactly one
// shard in a sharded run.
type device struct {
	node    int32
	rateBps float64
	// fixedPeer is the ISL peer node id, or -1 for the GSL device (the
	// target then travels with each queued packet).
	fixedPeer int32
	// head is the ring read position; advancing it retires the slot it
	// addressed, so a rings index computed before the advance is stale
	// after it.
	head int32
	n    int32
	busy bool

	// The in-flight packet, popped from the ring when serialization starts
	// and resolved when the evTransmitDone event for this device fires.
	inflight       *Packet
	inflightTarget int32
	inflightStart  Time

	// Statistics.
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
	rings   []queued             // len(devs) * cfg.QueuePackets, ring i at [i*Q, (i+1)*Q)
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
func (n *Network) DeviceStats() []DeviceStats {
	out := make([]DeviceStats, len(n.devs))
	for i := range n.devs {
		d := &n.devs[i]
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
	s.st.posBucket = -1

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
		n.devs = append(n.devs, device{node: int32(i), fixedPeer: -1, rateBps: rateFor(i, -1, cfg.GSLRateBps)})
		for _, p := range adj[i] {
			n.islPeer = append(n.islPeer, p)
			n.islDev = append(n.islDev, int32(len(n.devs)))
			n.devs = append(n.devs, device{node: int32(i), fixedPeer: p, rateBps: rateFor(i, int(p), cfg.ISLRateBps)})
		}
		n.islIdx[i+1] = int32(len(n.islPeer))
		if topo.IsGS(i) {
			n.flows[i] = map[uint32]Handler{}
		}
	}
	n.rings = make([]queued, len(n.devs)*cfg.QueuePackets)
	s.events.devices(len(n.devs))
	return n, nil
}

// Config returns the network's configuration (with defaults applied).
func (n *Network) Config() Config { return n.cfg }

// simFor returns the engine that owns a node's events: the root engine, or
// the node's shard engine during a sharded run.
//
//hypatia:noalloc
func (n *Network) simFor(node int32) *Simulator {
	if n.shardOf == nil {
		return n.Sim
	}
	return n.sims[n.shardOf[node]]
}

// SetTransmitHook registers fn to observe every link transmission. Pass nil
// to disable. Used by the utilization experiments (Figs 10, 14, 15). The
// TransmitInfo's Packet is valid only until fn returns (see Packet).
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
//
//hypatia:noalloc
func (n *Network) drop(s *Simulator, node int32, pkt *Packet, reason DropReason) {
	s.st.drops[reason]++
	if n.onDrop != nil {
		if s.st.journaling {
			s.st.journal = append(s.st.journal, journalRec{
				key: s.emissionKey(), jk: jDrop, at: s.now, a: node, reason: reason, pkt: *pkt,
			})
		} else {
			n.onDrop(s.now, int(node), pkt, reason) //hypatia:allocs(amortized) monitoring hooks own their allocation budget
		}
	}
	s.recycle(pkt)
}

// recycle returns the record of a packet whose journey has ended to the
// engine's free list.
//
//hypatia:noalloc
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

// installEvent is the evInstall dispatch. The serial loop takes the
// instant's table straight off the source and recycles the displaced one; a
// shard engine installs the clone its coordinator staged for this instant
// and retires the displaced clone for reuse.
//
//hypatia:noalloc
func (n *Network) installEvent(s *Simulator, idx int) {
	if check.Enabled {
		check.Assert(idx == s.st.installs, "install event %d executed as install number %d", idx, s.st.installs)
	}
	prev := s.st.ft
	if n.shardOf == nil {
		s.st.ft = <-n.tables
		prev.Release()
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
		FlowID:  flowID,
		Size:    size,
		SentAt:  s.now,
		Payload: payload,
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
// instant containing t.
//
//hypatia:noalloc
func (n *Network) positionsAt(s *Simulator, t Time) []geom.Vec3 {
	bucket := t / n.cfg.PosQuantum
	if bucket != s.st.posBucket || s.st.pos == nil {
		s.st.pos = n.Topo.NodePositions(Time(bucket*n.cfg.PosQuantum).Seconds(), s.st.pos)
		s.st.posBucket = bucket
	}
	return s.st.pos
}

// propagationDelay returns the current one-way propagation delay between
// two nodes at time t.
//
//hypatia:noalloc
func (n *Network) propagationDelay(s *Simulator, a, b int32, t Time) Time {
	pos := n.positionsAt(s, t)
	return Seconds(pos[a].Distance(pos[b]) / geom.SpeedOfLight)
}

// forward routes a packet held by node toward its destination GS.
//
//hypatia:noalloc
func (n *Network) forward(s *Simulator, node int32, pkt *Packet) {
	if s.st.ft == nil {
		panic("sim: no forwarding state installed")
	}
	if pkt.Hops >= n.cfg.MaxHops {
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

// enqueue appends the packet to the device's drop-tail queue and kicks the
// transmitter if idle.
//
//hypatia:noalloc
func (n *Network) enqueue(s *Simulator, di int32, pkt *Packet, target int32) {
	d := &n.devs[di]
	q := int32(n.cfg.QueuePackets)
	if d.n == q {
		n.drop(s, d.node, pkt, DropQueue)
		return
	}
	tail := di*q + (d.head+d.n)%q // tail of device di's ring
	n.rings[tail] = queued{pkt: pkt, target: target}
	d.n++
	if check.Enabled {
		check.Assert(d.n >= 1 && d.n <= q,
			"device %d queue occupancy %d outside [1, %d] after enqueue", d.node, d.n, q)
	}
	if d.n > d.maxQueue {
		d.maxQueue = d.n
	}
	if !d.busy {
		n.transmitStart(s, di)
	}
}

// transmitStart pops the head-of-line packet at serialization start and
// schedules the device's evTransmitDone for when the last bit is on the
// wire. The head advance retires the slot, so both ring accesses precede it.
//
//hypatia:noalloc
func (n *Network) transmitStart(s *Simulator, di int32) {
	d := &n.devs[di]
	if check.Enabled {
		check.Assert(d.n > 0, "device %d transmit with empty queue", d.node)
	}
	q := int32(n.cfg.QueuePackets)
	slot := di*q + d.head // head of device di's ring
	qd := n.rings[slot]
	n.rings[slot] = queued{}
	d.head = (d.head + 1) % q
	d.n--
	d.busy = true
	d.txPackets++
	d.txBytes += uint64(qd.pkt.Size)
	d.inflight = qd.pkt
	d.inflightTarget = qd.target
	d.inflightStart = s.now

	txTime := Seconds(float64(qd.pkt.Size*8) / d.rateBps)
	s.events.push(event{
		at: s.now + txTime, owner: d.node, kind: evTransmitDone,
		key: uint64(di), seq: s.nextSeq(),
	})
}

// transmitDone is the evTransmitDone dispatch: emit the transmission, apply
// link loss, hand the packet toward its target (possibly across shards),
// and chain the next serialization.
//
//hypatia:noalloc
func (n *Network) transmitDone(s *Simulator, di int32) {
	d := &n.devs[di]
	pkt, target, start := d.inflight, d.inflightTarget, d.inflightStart
	d.inflight = nil
	done := s.now
	prop := n.propagationDelay(s, d.node, target, done)
	if n.onTransmit != nil {
		ti := TransmitInfo{From: int(d.node), To: int(target), Packet: pkt, Start: start, Arrive: done + prop}
		if s.st.journaling {
			s.st.journal = append(s.st.journal, journalRec{
				key: s.emissionKey(), jk: jTransmit, at: start, a: d.node, b: target,
				arrive: done + prop, pkt: *pkt,
			})
		} else {
			n.onTransmit(ti) //hypatia:allocs(amortized) monitoring hooks own their allocation budget
		}
	}
	if n.cfg.LossModel != nil && n.cfg.LossModel(int(d.node), int(target), done) { //hypatia:allocs(amortized) loss models own their allocation budget
		n.drop(s, d.node, pkt, DropLink)
	} else {
		n.deliverTo(s, di, target, done+prop, pkt)
	}
	if d.n > 0 {
		n.transmitStart(s, di)
	} else {
		d.busy = false
	}
}

// deliverTo schedules the arrival at its target node of a packet device di
// has just put on the wire: locally, through the device's in-flight FIFO,
// when the target is on this engine, as a cross-shard handoff otherwise.
//
//hypatia:noalloc
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
//
//hypatia:noalloc
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
				n.onDeliver(s.now, pkt.DstGS, pkt) //hypatia:allocs(amortized) monitoring hooks own their allocation budget
			}
		}
		h(pkt) //hypatia:allocs(amortized) transport handlers own their allocation budget
		s.recycle(pkt)
		return
	}
	n.forward(s, node, pkt)
}

// QueueLen reports the queue occupancy of the device from node `from`
// toward node `to` (an ISL device if the pair is an ISL, otherwise the GSL
// device of `from`). Useful for tests and instrumentation.
func (n *Network) QueueLen(from, to int) int {
	for i := n.islIdx[from]; i < n.islIdx[from+1]; i++ {
		if n.islPeer[i] == int32(to) {
			return int(n.devs[n.islDev[i]].n)
		}
	}
	return int(n.devs[n.gslDev[from]].n)
}
