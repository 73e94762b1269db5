package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"hypatia/internal/analysis"
	"hypatia/internal/constellation"
	"hypatia/internal/core"
	"hypatia/internal/experiments"
	"hypatia/internal/groundstation"
	"hypatia/internal/routing"
	"hypatia/internal/sim"
	"hypatia/internal/transport"
)

// kind selects what a workload runs on top of its topology.
type kind int

const (
	kindUDP      kind = iota // one line-rate CBR flow per permutation pair
	kindTCP                  // one NewReno flow per permutation pair
	kindFstate               // forwarding state only, no traffic
	kindAnalysis             // analysis.AnalyzePairs over all pairs
)

// workload is one benchmark input. Sizes are fixed here: BENCHMARK.json
// carries only names and reasons, and every number the benchmark reports is
// per virtual second, so a later change cannot make a metric look better by
// editing a size.
type workload struct {
	Name string
	Why  string
	kind kind
	// constellation builds the shell configuration (K1 or S1).
	constellation func() constellation.Config
	// virtualS is the simulated (or analysed) horizon in seconds.
	virtualS float64
	// rateBps is the uniform ISL/GSL rate, and the UDP send rate.
	rateBps float64
	// reduced marks a scaled-down copy, whose digests are not the recorded
	// ones.
	reduced bool
}

// updateInterval is the forwarding-state granularity of every workload, the
// paper's default.
const updateInterval = 100 * sim.Millisecond

// The horizons are sized so that one repetition takes 4–6 s on the 2-vCPU
// reference host: the contract allows ~35 s per invocation including set-up,
// and a median needs at least three repetitions inside that. The shapes —
// topology, pair count, line rate, update interval, destination set — are
// the issue's; only the virtual horizon is shorter, and every reported
// number is a rate per virtual second.
var workloads = []workload{
	{
		Name: "udp_perm100",
		Why:  "Fig 2 UDP cell: K1, 100 cities, line-rate CBR per permutation pair at 100 Mbit/s. The event loop does >95% of the CPU: an event-path gain shows here, a routing gain must not.",
		kind: kindUDP, constellation: kuiper, virtualS: 2, rateBps: 100e6,
	},
	{
		Name: "tcp_perm100",
		Why:  "Same topology and pairs under TCP NewReno at 25 Mbit/s: ACK traffic, timer closures, per-flow logs. A transport change, or a packet-path gain paid for in closure events, shows only here.",
		kind: kindTCP, constellation: kuiper, virtualS: 12, rateBps: 25e6,
	},
	{
		Name: "fstate_k1",
		Why:  "K1 forwarding state toward all 100 cities at 100 ms, no traffic: routing, graph and orbit do all the work and the event loop idles, so only a routing-path gain may move it.",
		kind: kindFstate, constellation: kuiper, virtualS: 80,
	},
	{
		Name: "analysis_s1_pairs",
		Why:  "Starlink S1 (1584 sats), AnalyzePairs over all 4950 pairs: from-scratch Snapshot + heap Dijkstra on a larger graph. A gain for the incremental path bought at this path's cost shows as a loss.",
		kind: kindAnalysis, constellation: starlink, virtualS: 30,
	},
}

func kuiper() constellation.Config   { return constellation.Kuiper() }
func starlink() constellation.Config { return constellation.Starlink() }

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the workload with its virtual horizon multiplied by f
// (the smoke test runs every workload at ~1/50 scale), never below two
// forwarding instants.
func (w workload) scaled(f float64) workload {
	w.virtualS = math.Max(updateInterval.Seconds(), math.Round(w.virtualS*f*10)/10)
	w.reduced = true
	return w
}

func (w workload) duration() sim.Time { return sim.Seconds(w.virtualS) }

func (w workload) packets() bool { return w.kind == kindUDP || w.kind == kindTCP }

// instants lists the forwarding-update times of a run, as core.NewRun does.
func (w workload) instants() []sim.Time {
	var out []sim.Time
	for at := sim.Time(0); at <= w.duration(); at += updateInterval {
		out = append(out, at)
	}
	return out
}

// pairs is the traffic matrix: the repo's own random permutation over the
// 100 cities (experiments.Seed), the one EXPERIMENTS.md's Fig 2 rows use.
// It is the same for every benchmark seed — see startJitter.
func (w workload) pairs() [][2]int {
	if !w.packets() {
		return nil
	}
	return experiments.RandomPermutationPairs(len(cities()), experiments.Seed)
}

// startJitter bounds the seeded start offset of each flow. The benchmark
// seed draws these offsets and nothing else: it changes every packet's
// timing, and with it which packets meet in which queue, but not how much
// traffic is offered. Drawing the permutation itself from the seed was
// measured first and moves the work of a run by an interquartile 12–15%
// across ten seeds (hop count and drop positions depend on which cities are
// paired), which no regression bound the contract allows could see through;
// host noise on the same machine is 0.2–0.3%. The program under test sees
// only the pairs and the offsets, never the seed.
const startJitter = 10 * sim.Millisecond

func cities() []groundstation.GS { return groundstation.Top100Cities() }

func (w workload) netConfig() sim.Config {
	c := sim.DefaultConfig()
	if w.rateBps > 0 {
		c.ISLRateBps = w.rateBps
		c.GSLRateBps = w.rateBps
	}
	return c
}

// runConfig is the production configuration: default incremental producer,
// forwarding state toward every station.
func (w workload) runConfig() core.RunConfig {
	return core.RunConfig{
		Constellation:  w.constellation(),
		GroundStations: cities(),
		Duration:       w.duration(),
		UpdateInterval: updateInterval,
		Net:            w.netConfig(),
	}
}

// analysisWorkers is AnalyzePairs' fan-out. It equals the package's default
// and is set explicitly so that analysis.residual_ns_per_step divides the
// Dijkstra share by the number the run really used.
const analysisWorkers = 8

func (w workload) analysisConfig() analysis.Config {
	return analysis.Config{Duration: w.virtualS, Step: updateInterval.Seconds(), Workers: analysisWorkers}
}

// analysisSteps is the number of snapshots AnalyzePairs takes.
func (w workload) analysisSteps() int {
	return int(w.virtualS/updateInterval.Seconds()) + 1
}

// flowSet is the transports attached to one run, kept so the digest and the
// transport counters can be read back afterwards.
type flowSet struct {
	udp []*transport.UDPFlow
	tcp []*transport.TCPFlow
}

// attach creates the workload's flows on a network and schedules each to
// start at its seeded offset. Production and traced runs both go through
// here, so they offer identical traffic.
func (w workload) attach(net *sim.Network, ids *transport.FlowIDs, seed int64) *flowSet {
	fs := &flowSet{}
	rng := rand.New(rand.NewSource(seed))
	for _, p := range w.pairs() {
		delay := sim.Time(rng.Int63n(int64(startJitter)))
		switch w.kind {
		case kindUDP:
			f := transport.NewUDPFlow(net, ids, p[0], p[1], transport.UDPConfig{RateBps: w.rateBps})
			f.StartAfter(delay)
			fs.udp = append(fs.udp, f)
		case kindTCP:
			f := transport.NewTCPFlow(net, ids, p[0], p[1], transport.TCPConfig{})
			f.StartAfter(delay)
			fs.tcp = append(fs.tcp, f)
		}
	}
	return fs
}

// digest is the simulated outcome of one run: counts that must repeat
// exactly on every run of the same workload and seed, on any host.
// Simulator.Processed is deliberately absent — a legitimate event-loop
// change may alter it — and is reported beside the digest instead.
type digest struct {
	Delivered        uint64            `json:"delivered"`
	Drops            map[string]uint64 `json:"drops,omitempty"`
	Hops             uint64            `json:"hops"`
	UpdatesInstalled int               `json:"updates_installed"`
	FlowBytes        string            `json:"flow_bytes_fnv,omitempty"` // FNV-64a over per-flow received payload bytes
	LastTable        string            `json:"last_table_fnv,omitempty"` // FNV-64a over the last installed table's next hops
	PairStats        string            `json:"pair_stats_fnv,omitempty"` // FNV-64a over every pair's {MinRTT, MaxRTT, PathChanges}
}

// key folds the digest into one comparable string (encoding/json writes
// map keys sorted, so the encoding is canonical).
func (d digest) key() string {
	b, err := json.Marshal(d)
	if err != nil {
		panic(err) // a struct of integers and strings always encodes
	}
	return fnvHex(b)
}

// fnvHex is the FNV-64a hash of b in hex.
func fnvHex(b []byte) string {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash.Hash documents that Write never returns an error
	return fmt.Sprintf("%016x", h.Sum64())
}

// dropReasons is every sim.DropReason, in declaration order.
var dropReasons = []sim.DropReason{sim.DropQueue, sim.DropNoRoute, sim.DropTTL, sim.DropNoHandler, sim.DropLink}

// simCounts are simulated statistics read off a finished network. They
// repeat exactly but — unlike the digest — may legitimately change with the
// event loop (Events) or are diagnostic only (QueueHighwater).
type simCounts struct {
	Events         uint64 `json:"events"`
	QueueHighwater int    `json:"queue_highwater_max"`
	TCPRetx        int64  `json:"tcp_retx"`
	TCPFastRetx    int64  `json:"tcp_fast_retx"`
}

// packetDigest reads the digest and counts off a finished packet or
// forwarding-state run. last is the table installed at the final instant.
func packetDigest(s *sim.Simulator, net *sim.Network, fs *flowSet, updates int, last *routing.ForwardingTable) (digest, simCounts) {
	d := digest{
		Delivered:        net.Delivered(),
		Drops:            map[string]uint64{},
		UpdatesInstalled: updates,
	}
	for _, r := range dropReasons {
		if n := net.Drops(r); n > 0 {
			d.Drops[r.String()] = n
		}
	}
	c := simCounts{Events: s.Processed()}
	for _, ds := range net.DeviceStats() {
		d.Hops += ds.TxPkts
		c.QueueHighwater = max(c.QueueHighwater, ds.MaxQueue)
	}

	var b []byte
	for _, f := range fs.udp {
		b = binary.LittleEndian.AppendUint64(b, uint64(f.ReceivedPayloadBytes))
	}
	for _, f := range fs.tcp {
		b = binary.LittleEndian.AppendUint64(b, uint64(f.ReceivedSegments()*int64(f.Config().MSS)))
		c.TCPRetx += f.RetxCount
		c.TCPFastRetx += f.FastRetxCount
	}
	d.FlowBytes = fnvHex(b)

	b = b[:0]
	for gs := 0; gs < last.NumGS; gs++ {
		for node := 0; node < last.NumNodes; node++ {
			b = binary.LittleEndian.AppendUint32(b, uint32(last.NextHop(node, gs)))
		}
	}
	d.LastTable = fnvHex(b)
	return d, c
}

func analysisDigest(stats []analysis.PairStats) digest {
	var b []byte
	for _, p := range stats {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.MinRTT))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.MaxRTT))
		b = binary.LittleEndian.AppendUint64(b, uint64(p.PathChanges))
	}
	return digest{PairStats: fnvHex(b)}
}
