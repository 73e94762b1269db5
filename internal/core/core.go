// Package core is the Hypatia orchestrator: it wires a constellation,
// ground stations, routing, and the packet simulator into a runnable
// experiment. It owns the paper's two-layer time model — forwarding state
// recomputed at a fixed granularity (default 100 ms) and installed as
// simulator events, while link latencies evolve continuously in between —
// and exposes the hooks experiments use to attach transports and record
// metrics.
package core

import (
	"fmt"

	"hypatia/internal/constellation"
	"hypatia/internal/groundstation"
	"hypatia/internal/routing"
	"hypatia/internal/sim"
	"hypatia/internal/transport"
)

// RunConfig describes one packet-level simulation run.
type RunConfig struct {
	// Constellation to generate (e.g. constellation.Kuiper()).
	Constellation constellation.Config
	// GroundStations to place (e.g. groundstation.Top100Cities()).
	GroundStations []groundstation.GS
	// GSLPolicy is how ground stations attach to satellites.
	GSLPolicy routing.GSLPolicy
	// Duration of the simulation; default 200 s (the paper's horizon).
	Duration sim.Time
	// UpdateInterval is the forwarding-state granularity; default 100 ms.
	UpdateInterval sim.Time
	// Net carries link rates and queue sizes; zero value means
	// sim.DefaultConfig().
	Net sim.Config
	// ActiveDstGS optionally restricts forwarding-state computation to the
	// ground stations that actually receive traffic, which keeps pair
	// studies cheap. Nil computes state for every ground station. The set
	// is captured at NewRun: the pipeline precomputes future instants from
	// it, so mutating the config after construction has no effect. A
	// station may be listed once.
	ActiveDstGS []int
	// Strategy optionally replaces shortest-path routing: it is called at
	// every forwarding update with the current snapshot and the active
	// destination set (nil = all), and returns the forwarding state to
	// install. This is the paper's "any routing strategy implementable with
	// static routes" extension point. Nil runs the incremental
	// shortest-path engine, whose tables are bitwise identical to
	// ShortestPath's (proven by the hypatia_checks oracle and the
	// differential suite).
	Strategy Strategy
	// Shards selects the sharded conservative-parallel event loop: > 1
	// partitions the network's nodes across that many concurrent engines
	// advancing inside a propagation-delay lookahead horizon
	// (sim.Network.RunSharded); 0 or 1 runs the serial loop. Sharding does
	// not affect results — delivery/drop/transmit traces are byte-identical
	// to the serial loop (proven by the sharded differential suite) — but
	// Simulator.Processed additionally counts each shard's copy of the
	// forwarding-install events. Shard counts above the satellite count are
	// clamped.
	//
	// It trades resources for wall time and only on one kind of traffic, so
	// the default is serial and the choice is the caller's. Measured end to
	// end with two shards on two hardware threads (DESIGN.md "Sharded
	// conservative-parallel event loop"): a hundred independent line-rate
	// UDP flows at 250 Mbit/s finish in about 0.65x the serial wall time,
	// for about 1.2x the CPU, 4x the allocation and 2.7x the peak RSS. At
	// 100 Mbit/s the gain is about 0.9x. A hundred ACK-clocked TCP flows run
	// about 1.7x slower than serial, for 1.9x the CPU, and so does anything
	// on a single hardware thread.
	Shards int
}

// Strategy computes a forwarding table from a topology snapshot. active
// lists the destination ground stations that will receive traffic (nil
// means all).
//
// Lifetime contract: the snapshot is owned by the engine and is only valid
// for the duration of the call — its arenas are reused for later instants.
// A strategy must not retain s (or s.G, s.Pos) after returning; derived
// snapshots such as s.WithoutNodes are fresh and safe to keep. A strategy
// must be a pure function of (s, active): the producer calls it ahead of
// and concurrently with the event loop, and determinism of the simulation
// rests on its output depending only on its inputs.
type Strategy func(s *routing.Snapshot, active []int) *routing.ForwardingTable

// ShortestPath is the default routing strategy: per-destination Dijkstra
// over link distances (lowest propagation latency), as in the paper.
func ShortestPath(s *routing.Snapshot, active []int) *routing.ForwardingTable {
	return s.ForwardingTableFor(active)
}

// AvoidNodes wraps a strategy so the given nodes are excluded from all
// paths — e.g. satellites marked failed or in maintenance. It recomputes
// the inner strategy on a snapshot whose graph omits the nodes' edges.
func AvoidNodes(inner Strategy, nodes ...int) Strategy {
	avoid := map[int]bool{}
	for _, n := range nodes {
		avoid[n] = true
	}
	return func(s *routing.Snapshot, active []int) *routing.ForwardingTable {
		pruned := s.WithoutNodes(avoid)
		return inner(pruned, active)
	}
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Duration == 0 {
		c.Duration = 200 * sim.Second
	}
	if c.UpdateInterval == 0 {
		c.UpdateInterval = 100 * sim.Millisecond
	}
	c.Net = c.Net.WithDefaults()
	return c
}

// Run is a fully wired simulation ready for transports to be attached.
type Run struct {
	Cfg   RunConfig
	Topo  *routing.Topology
	Sim   *sim.Simulator
	Net   *sim.Network
	Flows *transport.FlowIDs

	pipe *pipeline
}

// NewRun generates the constellation, builds the network, starts the
// forwarding-state producer, installs the t=0 state, and schedules one
// forwarding update per later instant of the run's duration. Each update
// takes the precomputed table for its instant off the pipeline — tables for
// future instants are computed concurrently with DES execution — and
// recycles the table it displaces.
func NewRun(cfg RunConfig) (*Run, error) {
	cfg = cfg.withDefaults()
	if cfg.Duration < 0 || cfg.UpdateInterval < 0 {
		return nil, fmt.Errorf("core: negative duration %v or update interval %v", cfg.Duration, cfg.UpdateInterval)
	}
	listed := make([]bool, len(cfg.GroundStations))
	for _, gs := range cfg.ActiveDstGS {
		if gs < 0 || gs >= len(cfg.GroundStations) {
			return nil, fmt.Errorf("core: active destination %d outside the %d ground stations", gs, len(cfg.GroundStations))
		}
		if listed[gs] {
			return nil, fmt.Errorf("core: active destination %d listed twice", gs)
		}
		listed[gs] = true
	}
	c, err := constellation.Generate(cfg.Constellation)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	topo, err := routing.NewTopology(c, cfg.GroundStations, cfg.GSLPolicy)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := sim.NewSimulator()
	net, err := sim.NewNetwork(s, topo, cfg.Net)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	r := &Run{Cfg: cfg, Topo: topo, Sim: s, Net: net, Flows: &transport.FlowIDs{}}

	times := make([]sim.Time, 0, int(cfg.Duration/cfg.UpdateInterval)+1)
	for at := sim.Time(0); at <= cfg.Duration; at += cfg.UpdateInterval {
		times = append(times, at)
	}
	r.pipe = newPipeline(topo, cfg.Strategy, cfg.ActiveDstGS, times)
	net.InstallForwarding(<-r.pipe.tables)
	net.ScheduleInstalls(times[1:], r.pipe.tables)
	return r, nil
}

// Close shuts down the run's forwarding-state pipeline. It is only needed
// when a run is abandoned before Execute completes (e.g. after Sim.Stop);
// a run executed to its full duration drains the pipeline on its own.
// Idempotent. The run must not be Executed after Close.
func (r *Run) Close() { r.pipe.close() }

// Execute runs the simulation to the end of its duration — on the sharded
// conservative-parallel loop with Cfg.Shards > 1, on the serial loop
// otherwise — and returns the virtual duration simulated. Executing a run
// that Sim.Stop cut short resumes it.
func (r *Run) Execute() sim.Time {
	if r.Cfg.Shards > 1 {
		r.Net.RunSharded(r.Cfg.Duration, r.Cfg.Shards)
	} else {
		r.Sim.Run(r.Cfg.Duration)
	}
	return r.Cfg.Duration
}

// UpdatesInstalled reports how many forwarding states have been installed
// so far (including the initial one).
func (r *Run) UpdatesInstalled() int { return 1 + r.Net.Installs() }

// GSIndexByName resolves a ground-station name to its index in the run.
func (r *Run) GSIndexByName(name string) (int, error) {
	return groundstation.IndexByName(r.Topo.GroundStations, name)
}
