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
// cities, one flow per pair of a random permutation, each starting within
// the first 10 ms as the benchmark's workloads do — ready to Execute. The
// UDP shape is line-rate flows on 100 Mbit/s links for 200 virtual
// milliseconds (~1M events: udp_perm100, shorter); the TCP shape (tcp set)
// is NewReno on 25 Mbit/s links for 2 virtual seconds (~1M events:
// tcp_perm100, shorter).
func newSimShape(tb testing.TB, tcp bool) *Run {
	tb.Helper()
	if tcp {
		return newShape(tb, true, 25e6, 2*sim.Second, 10*sim.Millisecond)
	}
	return newShape(tb, false, 100e6, 200*sim.Millisecond, 10*sim.Millisecond)
}

// newShape is newSimShape at any link and UDP rate and horizon. With jitter
// above zero each flow starts at a seeded offset below it, drawn the way the
// benchmark's workloads draw theirs (attach in bench/workloads.go); at zero
// every flow starts at t = 0.
func newShape(tb testing.TB, tcp bool, rateBps float64, duration, jitter sim.Time) *Run {
	tb.Helper()
	net := sim.DefaultConfig()
	net.ISLRateBps, net.GSLRateBps = rateBps, rateBps
	cities := groundstation.Top100Cities()
	run, err := NewRun(RunConfig{
		Constellation:  constellation.Kuiper(),
		GroundStations: cities,
		Duration:       duration,
		Net:            net,
	})
	if err != nil {
		tb.Fatal(err)
	}
	offsets := rand.New(rand.NewSource(20201027))
	start := func(f interface {
		Start()
		StartAfter(sim.Time)
	}) {
		if jitter > 0 {
			f.StartAfter(sim.Time(offsets.Int63n(int64(jitter))))
		} else {
			f.Start()
		}
	}
	for src, dst := range rand.New(rand.NewSource(20201027)).Perm(len(cities)) {
		switch {
		case src == dst:
		case tcp:
			start(transport.NewTCPFlow(run.Net, run.Flows, src, dst, transport.TCPConfig{}))
		default:
			start(transport.NewUDPFlow(run.Net, run.Flows, src, dst, transport.UDPConfig{RateBps: rateBps}))
		}
	}
	return run
}

// benchSim reports events/s over b.N runs of newSimShape. Only Execute is
// timed: constellation generation, network set-up and flow attachment happen
// with the timer stopped, so events/s is the event loop's.
func benchSim(b *testing.B, tcp bool) {
	var total uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run := newSimShape(b, tcp)
		b.StartTimer()
		run.Execute()
		total += run.Sim.Processed()
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSimSerial is the event loop on the Fig 2 UDP shape.
// TestAllocGuardBenchSimSerial holds one Execute of it to its allocation
// budget.
func BenchmarkSimSerial(b *testing.B) { benchSim(b, false) }

// BenchmarkSimSerialTCP is the same on the TCP shape: ACK reverse traffic,
// transport timers, a quarter of the line rate.
// TestAllocGuardBenchSimSerialTCP holds one Execute to its allocation budget.
func BenchmarkSimSerialTCP(b *testing.B) { benchSim(b, true) }

// BenchmarkSimLoad is per-event cost against load: the UDP shape at 25, 50
// and 100 Mbit/s for 500 virtual ms, each flow starting within the first
// 10 ms as the benchmark's do (flows started together tie at every pacing
// instant, which udp_perm100 does not), the forwarding-state producer
// running beside the loop as in production. Each rate reports the wall time
// per event processed beside the mean pending events, sampled every virtual
// millisecond by a closure (about 500 of the run's events), so the rows
// show whether an event costs more as the pending set grows:
//
//	go test -run '^$' -bench SimLoad -benchtime 5x ./internal/core/
func BenchmarkSimLoad(b *testing.B) {
	for _, mbps := range []float64{25, 50, 100} {
		b.Run(fmt.Sprintf("rate=%gMbps", mbps), func(b *testing.B) {
			var events uint64
			var pending, samples int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				run := newShape(b, false, mbps*1e6, 500*sim.Millisecond, 10*sim.Millisecond)
				s := run.Sim
				var probe func()
				probe = func() {
					pending += s.Pending()
					samples++
					s.Schedule(sim.Millisecond, probe)
				}
				s.Schedule(0, probe)
				b.StartTimer()
				run.Execute()
				events += s.Processed()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(pending)/float64(samples), "pending")
		})
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
