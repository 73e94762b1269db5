package main

import "hypatia/internal/sim"

// metricDef names one reported number. The tables below are the single
// source for BENCHMARK.json and the printed tables (a test pins the two
// together); README.md repeats them with the reasoning.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // share of the parent's median; end-to-end only
	// manifest is false for the end-to-end metrics BENCHMARK.json cannot
	// carry: the contract wants every listed metric on every workload and
	// never zero.
	manifest bool
	// simulated marks a per-layer count that is a simulated outcome, not a
	// host measurement: it must repeat exactly, and -compare checks that.
	simulated bool
	// doc says how the number is measured; it is documentation kept beside
	// the name and is not printed.
	doc string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the simulator sees: the issue's seven metrics.
//
// Bounds are the share by which the value may worsen before a change counts
// as a regression. They are set from what was measured on the 2-vCPU
// reference host over ten seeds, twice (README.md, "Bounds"), not from what
// one would like them to be: every time-based metric gets the contract's
// ceiling, because the host has ten-minute episodes in which the packet
// workloads run 20% slower.
var endToEnd = []metricDef{
	{Name: "slowdown", Unit: "s/vs", Better: lower, Bound: 0.25, manifest: true,
		doc: "wall seconds of the timed region per virtual second simulated or analysed (Fig 2's y-axis)"},
	{Name: "cpu_s_per_vsec", Unit: "s/vs", Better: lower, Bound: 0.25, manifest: true,
		doc: "user+sys CPU seconds (getrusage) over the timed region per virtual second"},
	{Name: "pkt_hops_per_s", Unit: "1/s", Better: higher, Bound: 0.25,
		doc: "device transmissions (sum of DeviceStats.TxPkts) per wall second; packet workloads only"},
	{Name: "alloc_mb_per_vsec", Unit: "MB/vs", Better: lower, Bound: 0.15, manifest: true,
		doc: "MemStats.TotalAlloc delta over the timed region per virtual second"},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.10, manifest: true,
		doc: "VmHWM of the repetition's process at the end of the timed region; lowest of the repetitions"},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, manifest: true,
		doc: "median of 41 back-to-back constructions (NewRun+Close, or Generate+NewTopology) after one warm-up"},
	{Name: "failed_share", Unit: "ratio", Better: lower, Bound: 0,
		doc: "failed / attempted repetitions; a repetition fails on error, panic or digest mismatch"},
}

func endToEndDef(name string) metricDef {
	for _, m := range endToEnd {
		if m.Name == name {
			return m
		}
	}
	panic("bench: unknown end-to-end metric " + name)
}

// perLayer lists every per-layer metric, layer = module name. A metric that
// does not apply to a workload is left out of that workload's ledger (and
// printed as 0 in contract mode, which wants every name on every workload).
var perLayer = []metricDef{
	{Name: "core.setup.generate_s", Unit: "s", Better: lower, doc: "constellation.Generate span"},
	{Name: "core.setup.topology_s", Unit: "s", Better: lower, doc: "routing.NewTopology span"},
	{Name: "core.setup.network_s", Unit: "s", Better: lower, doc: "sim.NewSimulator+NewNetwork span"},
	{Name: "core.setup.first_table_s", Unit: "s", Better: lower, doc: "NewIncrementalEngine + Step(0) + install span"},
	{Name: "core.serial_sum_s", Unit: "s", Better: lower, doc: "sum of step, install and sim spans of the traced loop"},
	{Name: "core.overlap_gain", Unit: "ratio", Better: higher, doc: "core.serial_sum_s / production wall (base: production wall)"},
	{Name: "core.window_slowdown_tail", Unit: "s/vs", Better: lower, doc: "tail of wall seconds per virtual-second window of a production run"},
	{Name: "core.trace_overhead_frac", Unit: "ratio", Better: lower, doc: "traced loop wall / untraced production wall - 1"},
	{Name: "pkt_hops_per_s", Unit: "1/s", Better: higher, doc: "hops per wall second of the untraced production repetition"},
	{Name: "orbit.positions_ns_per_instant", Unit: "ns", Better: lower, doc: "Topology.NodePositions drive, p50"},
	{Name: "routing.step_ns_per_instant", Unit: "ns", Better: lower, doc: "IncrementalEngine.Step spans, p50"},
	{Name: "routing.step_allocs_per_instant", Unit: "count", Better: lower, doc: "mallocs per Step span, mean after the first step of the loop"},
	{Name: "routing.delta_ns_per_instant", Unit: "ns", Better: lower, doc: "Topology.DeltaInto drive over one 100 ms step, p50"},
	{Name: "routing.delta_changed_edges_per_instant", Unit: "count", simulated: true, Better: lower, doc: "changed edges DeltaInto reported, mean"},
	{Name: "routing.snapshot_ns_per_instant", Unit: "ns", Better: lower, doc: "Topology.SnapshotInto drive, p50"},
	{Name: "routing.table_scratch_ns_per_instant", Unit: "ns", Better: lower, doc: "Snapshot.ForwardingTable (the specification path), p50"},
	{Name: "graph.repair_ns_per_tree", Unit: "ns", Better: lower, doc: "RepairSSSPDense with carried dist/prev/order, p50"},
	{Name: "graph.dijkstra_ns_per_tree", Unit: "ns", Better: lower, doc: "DijkstraScratch per destination, p50"},
	{Name: "graph.diff_ns_per_instant", Unit: "ns", Better: lower, doc: "graph.DiffInto between consecutive snapshots, p50"},
	{Name: "sim.window_busy_s", Unit: "s", Better: lower, doc: "sum of Simulator.Run spans (transport callbacks included)"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: lower, doc: "sim.window_busy_s / sim.events"},
	{Name: "sim.ns_per_hop", Unit: "ns", Better: lower, doc: "sim.window_busy_s / sim.hops"},
	{Name: "sim.allocs_per_hop", Unit: "count", Better: lower, doc: "mallocs over the Run spans / sim.hops"},
	{Name: "sim.bytes_per_hop", Unit: "B", Better: lower, doc: "allocated bytes over the Run spans / sim.hops"},
	{Name: "sim.install_ns_per_instant", Unit: "ns", Better: lower, doc: "InstallForwarding+Release spans, p50"},
	{Name: "sim.heap_ns_per_event", Unit: "ns", Better: lower, doc: "hold-model drive of Schedule/Run at sim.pending_highwater"},
	{Name: "sim.raw_hop_ns", Unit: "ns", Better: lower, doc: "CBR through Network.Send with a no-op handler over a static table, wall / hops"},
	{Name: "sim.events", Unit: "count", simulated: true, Better: lower, doc: "Simulator.Processed of the traced loop"},
	{Name: "sim.hops", Unit: "count", simulated: true, Better: lower, doc: "sum of DeviceStats.TxPkts"},
	{Name: "sim.delivered", Unit: "count", simulated: true, Better: higher, doc: "Network.Delivered"},
	{Name: "sim.drops.queue-full", Unit: "count", simulated: true, Better: lower, doc: "Network.Drops(DropQueue)"},
	{Name: "sim.drops.no-route", Unit: "count", simulated: true, Better: lower, doc: "Network.Drops(DropNoRoute)"},
	{Name: "sim.drops.ttl-exceeded", Unit: "count", simulated: true, Better: lower, doc: "Network.Drops(DropTTL)"},
	{Name: "sim.drops.no-handler", Unit: "count", simulated: true, Better: lower, doc: "Network.Drops(DropNoHandler)"},
	{Name: "sim.drops.link-loss", Unit: "count", simulated: true, Better: lower, doc: "Network.Drops(DropLink)"},
	{Name: "sim.queue_highwater_max", Unit: "count", simulated: true, Better: lower, doc: "largest DeviceStats.MaxQueue"},
	{Name: "sim.pending_highwater", Unit: "count", simulated: true, Better: lower, doc: "largest Simulator.Pending at an instant boundary"},
	{Name: "transport.excess_ns_per_delivered_pkt", Unit: "ns", Better: lower, doc: "(sim.window_busy_s - sim.raw_hop_ns x sim.hops) / sim.delivered (base: window busy)"},
	{Name: "transport.tcp_retx", Unit: "count", simulated: true, Better: lower, doc: "sum of TCPFlow.RetxCount"},
	{Name: "transport.tcp_fast_retx", Unit: "count", simulated: true, Better: lower, doc: "sum of TCPFlow.FastRetxCount"},
	{Name: "trace.ns_per_record", Unit: "ns", Better: lower, doc: "raw-hop drive with trace.Tracer on io.Discard minus without, per record"},
	{Name: "analysis.ns_per_step", Unit: "ns", Better: lower, doc: "AnalyzePairs span / steps"},
	{Name: "analysis.residual_ns_per_step", Unit: "ns", Better: lower, doc: "ns_per_step - snapshot drive - sources x Dijkstra drive / min(GOMAXPROCS, workers)"},
}

// dropMetric names the count line of one drop reason.
func dropMetric(r sim.DropReason) string { return "sim.drops." + r.String() }

// value is one reported number. Timings measured as a distribution carry
// their tail (the highest percentile with at least ten samples beyond it)
// and sample count beside the p50.
type value struct {
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	Tail      float64 `json:"tail,omitempty"`
	TailLabel string  `json:"tail_label,omitempty"`
	N         int     `json:"n,omitempty"`
}

// ledger maps per-layer metric names to values for one workload.
type ledger map[string]value

func perLayerDef(name string) metricDef {
	for _, m := range perLayer {
		if m.Name == name {
			return m
		}
	}
	panic("bench: unknown per-layer metric " + name)
}

func (l ledger) set(name string, v float64) {
	l[name] = value{Value: v, Unit: perLayerDef(name).Unit}
}

// dist records a timing distribution as p50 + tail; an empty sample set
// leaves the metric out.
func (l ledger) dist(name string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	t, label := tail(samples)
	l[name] = value{Value: median(samples), Unit: perLayerDef(name).Unit, Tail: t, TailLabel: label, N: len(samples)}
}
