package core

import (
	"fmt"
	"math/rand"
	"testing"

	"hypatia/internal/constellation"
	"hypatia/internal/groundstation"
	"hypatia/internal/routing"
	"hypatia/internal/sim"
	"hypatia/internal/transport"
)

// Ablation: forwarding-state granularity cost. Finer time-steps mean more
// expensive shortest-path recomputation per simulated second (paper §5.3
// picks 100 ms as the accuracy/cost compromise).
func BenchmarkAblationForwardingGranularity(b *testing.B) {
	for _, interval := range []sim.Time{50 * sim.Millisecond, 100 * sim.Millisecond, sim.Second} {
		b.Run(fmt.Sprintf("interval=%v", interval), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := NewRun(RunConfig{
					Constellation:  constellation.Kuiper(),
					GroundStations: groundstation.Top100Cities(),
					Duration:       2 * sim.Second,
					UpdateInterval: interval,
					ActiveDstGS:    []int{0, 1},
				})
				if err != nil {
					b.Fatal(err)
				}
				run.Execute()
			}
		})
	}
}

// BenchmarkPacketForwardingRate measures end-to-end packet throughput of
// the simulator for a single saturating TCP flow over Kuiper K1.
func BenchmarkPacketForwardingRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := NewRun(RunConfig{
			Constellation:  constellation.Kuiper(),
			GroundStations: groundstation.Top100Cities(),
			Duration:       2 * sim.Second,
			ActiveDstGS:    []int{0, 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		transport.NewTCPFlow(run.Net, run.Flows, 0, 1, transport.TCPConfig{}).Start()
		run.Execute()
		if i == 0 {
			b.ReportMetric(float64(run.Sim.Processed())/2, "events/vsec")
		}
	}
}

// newSimShape builds one of the paper's Fig 2 shapes — Kuiper K1, the 100
// cities, one flow per pair of a random permutation — on the given engine
// (shards 0 = serial), ready to Execute. The UDP shape is line-rate flows on
// 100 Mbit/s links for 200 virtual milliseconds (~2M events); the TCP shape
// (tcp set) is NewReno on 25 Mbit/s links for 2 virtual seconds (~2.1M
// events: the benchmark's tcp_perm100 workload, shorter). A hundred
// independent flows spread over the whole constellation are work a shard
// count can split; a single flow is one causal chain that none can.
func newSimShape(tb testing.TB, shards int, tcp bool) *Run {
	tb.Helper()
	rateBps, duration := 100e6, 200*sim.Millisecond
	if tcp {
		rateBps, duration = 25e6, 2*sim.Second
	}
	net := sim.DefaultConfig()
	net.ISLRateBps, net.GSLRateBps = rateBps, rateBps
	cities := groundstation.Top100Cities()
	run, err := NewRun(RunConfig{
		Constellation:  constellation.Kuiper(),
		GroundStations: cities,
		Duration:       duration,
		Net:            net,
		Shards:         shards,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for src, dst := range rand.New(rand.NewSource(20201027)).Perm(len(cities)) {
		switch {
		case src == dst:
		case tcp:
			transport.NewTCPFlow(run.Net, run.Flows, src, dst, transport.TCPConfig{}).Start()
		default:
			transport.NewUDPFlow(run.Net, run.Flows, src, dst, transport.UDPConfig{RateBps: rateBps}).Start()
		}
	}
	return run
}

// benchSim reports events/s over b.N runs of newSimShape. Only Execute is
// timed: constellation generation, network set-up and flow attachment happen
// with the timer stopped, so events/s is the event loop's.
func benchSim(b *testing.B, shards int, tcp bool) {
	var total uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run := newSimShape(b, shards, tcp)
		b.StartTimer()
		run.Execute()
		total += run.Sim.Processed()
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSimSerial is the serial event-loop baseline for the sharded
// engine: identical workload, shard count 0. TestAllocGuardBenchSimSerial
// holds one Execute of it to its allocation budget.
func BenchmarkSimSerial(b *testing.B) { benchSim(b, 0, false) }

// BenchmarkSimSharded runs the same workload on the sharded
// conservative-parallel loop at several shard counts. Events/s counts what
// each engine actually processed (sharded runs process extra per-shard
// copies of the forwarding-install events — two per shard here, noise
// against two million packet events). The ratio to BenchmarkSimSerial needs
// hardware threads to show: with GOMAXPROCS=1 the shards take turns on one
// thread and the ratio is the coordination overhead alone, so read it next
// to the GOMAXPROCS it ran at.
func BenchmarkSimSharded(b *testing.B) {
	for _, shards := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) { benchSim(b, shards, false) })
	}
}

// BenchmarkSimSerialTCP and BenchmarkSimShardedTCP are the same pair on the
// TCP shape: ACK reverse traffic, transport timers, a quarter of the line
// rate. TestAllocGuardBenchSimSerialTCP holds one serial Execute to its
// allocation budget.
func BenchmarkSimSerialTCP(b *testing.B) { benchSim(b, 0, true) }

func BenchmarkSimShardedTCP(b *testing.B) {
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) { benchSim(b, shards, true) })
	}
}

// benchInstants is the schedule for the from-scratch forwarding-state
// benchmark: 8 Kuiper update instants at the paper's 100 ms granularity.
func benchInstants() []sim.Time {
	times := make([]sim.Time, 8)
	for i := range times {
		times[i] = sim.Time(i) * 100 * sim.Millisecond
	}
	return times
}

func benchKuiperTopo(tb testing.TB) *routing.Topology {
	tb.Helper()
	c, err := constellation.Generate(constellation.Kuiper())
	if err != nil {
		tb.Fatal(err)
	}
	topo, err := routing.NewTopology(c, groundstation.Top100Cities(), routing.GSLFree)
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

// BenchmarkForwardingStateSerial is the from-scratch baseline: for each
// update instant, build a fresh snapshot and compute the full forwarding
// table with the specification sweep.
func BenchmarkForwardingStateSerial(b *testing.B) {
	topo := benchKuiperTopo(b)
	times := benchInstants()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, at := range times {
			_ = topo.Snapshot(at.Seconds()).ForwardingTable()
		}
	}
}

// BenchmarkForwardingStateIncremental measures the forwarding-state
// producer in steady state on the same workload shape: 8 consecutive 100 ms
// instants per op. It drains a real pipeline, so each instant's trees split
// across GOMAXPROCS workers exactly as in a run; run it at GOMAXPROCS=1 and
// wider to see that split's scaling. Time keeps advancing across ops, so
// every measured instant is the honest small-drift repair case the engine
// exists for. Compare ns/op directly against BenchmarkForwardingStateSerial
// — both compute 8 full tables per op. TestAllocGuardBenchForwardingStateIncremental
// holds one op to its allocation budget.
func BenchmarkForwardingStateIncremental(b *testing.B) {
	p := warmPipeline(b, b.N)
	defer p.close()
	b.ResetTimer()
	for range b.N {
		drainInstants(p)
	}
}

// warmPipeline starts the producer on K1 toward every city over 17 + 8*ops
// instants and drains the first 17 outside any measurement: the first pays a
// full visibility scan and per-destination Dijkstra seeding, and delta
// scratch and repair arenas keep growing for several instants after it as
// the drift exposes new high-water marks.
func warmPipeline(tb testing.TB, ops int) *pipeline {
	const warm = 17
	times := make([]sim.Time, warm+8*ops)
	for i := range times {
		times[i] = sim.Time(i) * 100 * sim.Millisecond
	}
	p := newPipeline(benchKuiperTopo(tb), nil, nil, times)
	for range warm {
		(<-p.tables).Release()
	}
	return p
}

// drainInstants is one BenchmarkForwardingStateIncremental op: the next 8
// instants' tables, each released as soon as it arrives.
func drainInstants(p *pipeline) {
	for range 8 {
		(<-p.tables).Release()
	}
}
