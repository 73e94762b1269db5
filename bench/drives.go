package main

import (
	"io"
	"math/rand"
	"time"

	"hypatia/internal/geom"
	"hypatia/internal/graph"
	"hypatia/internal/routing"
	"hypatia/internal/sim"
	"hypatia/internal/trace"
)

// Layer drives call one layer's public functions directly, on the workload's
// own topology and instants, to get lines finer than the traced loop's
// spans. Every drive runs one untimed pass first so that arenas are warm
// before anything is timed, and every routing number is per instant (or per
// tree), never per batch of instants.

// drivenInstants picks the instants the routing drives visit: every 10th,
// or more densely on a short horizon so that there are about twenty.
func drivenInstants(times []sim.Time) []int {
	stride := 10
	if len(times)/stride < 20 {
		stride = max(1, len(times)/20)
	}
	var out []int
	for i := stride; i < len(times); i += stride {
		out = append(out, i)
	}
	return out
}

// repairDestinations is how many destination trees the repair drive carries
// (every k-th station): the dense repair needs the previous instant's
// dist/prev/order per tree, and ten trees give the per-tree cost without
// rebuilding the whole engine out here.
const repairDestinations = 10

// routingSamples holds one sample per driven instant (or per tree), in
// nanoseconds unless named otherwise.
type routingSamples struct {
	Positions    []float64 // Topology.NodePositions
	Delta        []float64 // Topology.DeltaInto, one 100 ms step
	DeltaChanged []float64 // changed edges that DeltaInto reported
	Snapshot     []float64 // Topology.SnapshotInto
	TableScratch []float64 // Snapshot.ForwardingTable
	Repair       []float64 // Graph.RepairSSSPDense, per tree
	Dijkstra     []float64 // Graph.DijkstraScratch, per tree
	Diff         []float64 // graph.DiffInto
}

// driveRouting visits each driven instant i as the pair (i-1, i): stateful
// layers are first brought to instant i-1 untimed, then timed over the one
// 100 ms step to i, which is the step the engine takes in a run.
func driveRouting(topo *routing.Topology, times []sim.Time) routingSamples {
	var out routingSamples
	n := topo.NumNodes()
	var (
		pos        []geom.Vec3
		delta      routing.DeltaState
		snapA      *routing.Snapshot
		snapB      *routing.Snapshot
		diffSc     graph.DiffScratch
		changes    []graph.EdgeChange
		repairSc   graph.RepairScratch
		dijkstraSc graph.Scratch
		dist       []float64
		prev       []int32
	)
	type tree struct {
		gs    int
		dist  []float64
		prev  []int32
		order []int32
	}
	var trees []tree
	for gs := 0; gs < topo.NumGS(); gs += max(1, topo.NumGS()/repairDestinations) {
		t := tree{gs: gs, dist: make([]float64, n), prev: make([]int32, n), order: make([]int32, n)}
		for i := range t.order {
			t.order[i] = int32(i)
		}
		trees = append(trees, t)
	}

	since := func(t0 time.Time) float64 { return float64(time.Since(t0)) }
	visit := func(i int, record bool) {
		tPrev, tCur := times[i-1].Seconds(), times[i].Seconds()

		t0 := time.Now()
		pos = topo.NodePositions(tCur, pos)
		dPos := since(t0)

		topo.DeltaInto(tPrev, &delta)
		t0 = time.Now()
		_, ch := topo.DeltaInto(tCur, &delta)
		dDelta := since(t0)

		snapA = topo.SnapshotInto(tPrev, snapA)
		t0 = time.Now()
		snapB = topo.SnapshotInto(tCur, snapB)
		dSnap := since(t0)

		t0 = time.Now()
		changes = graph.DiffInto(snapA.G, snapB.G, changes, &diffSc)
		dDiff := since(t0)

		if record {
			out.Positions = append(out.Positions, dPos)
			out.Delta = append(out.Delta, dDelta)
			out.DeltaChanged = append(out.DeltaChanged, float64(len(ch)))
			out.Snapshot = append(out.Snapshot, dSnap)
			out.Diff = append(out.Diff, dDiff)
		}

		for _, t := range trees {
			src := topo.GSNode(t.gs)
			snapA.G.RepairSSSPDense(src, t.dist, t.prev, t.order, &repairSc)
			t0 = time.Now()
			snapB.G.RepairSSSPDense(src, t.dist, t.prev, t.order, &repairSc)
			if record {
				out.Repair = append(out.Repair, since(t0))
			}
		}
		for gs := 0; gs < topo.NumGS(); gs++ {
			t0 = time.Now()
			dist, prev = snapB.G.DijkstraScratch(topo.GSNode(gs), dist, prev, &dijkstraSc)
			if record {
				out.Dijkstra = append(out.Dijkstra, since(t0))
			}
		}
		t0 = time.Now()
		snapB.ForwardingTable()
		if record {
			out.TableScratch = append(out.TableScratch, since(t0))
		}
	}

	visit(1, false)
	for _, i := range drivenInstants(times) {
		visit(i, true)
	}
	return out
}

// heapEvents is the most events the heap drive pushes through the simulator
// after filling it.
const heapEvents = 2_000_000

// driveHeap measures the event heap alone with a hold model: the simulator
// is filled to depth closures at seeded random times, and every closure that
// fires schedules one more, so Schedule/Run work at a constant depth — the
// workload's Pending high-water. The closure does nothing else; delays come
// from a precomputed table so the generator is not in the measurement.
func driveHeap(depth int, seed int64, events int) float64 {
	depth = max(depth, 1)
	rng := rand.New(rand.NewSource(seed))
	delays := make([]sim.Time, 1<<12)
	for i := range delays {
		delays[i] = sim.Time(1 + rng.Int63n(int64(sim.Millisecond)))
	}
	s := sim.NewSimulator()
	next := 0
	var hold func()
	hold = func() {
		s.Schedule(delays[next&(len(delays)-1)], hold)
		next++
	}
	for i := 0; i < depth; i++ {
		hold()
	}
	// Run stops at the first event past `until`; choose it from the event
	// budget by running in slices of virtual time until enough have fired.
	step := sim.Millisecond
	warm := uint64(depth) // one full turnover before timing
	for s.Processed() < warm {
		s.Run(s.Now() + step)
	}
	start := s.Processed()
	t0 := time.Now()
	for s.Processed()-start < uint64(events) {
		s.Run(s.Now() + step)
	}
	return float64(time.Since(t0)) / float64(s.Processed()-start)
}

// rawDriveBits fixes the raw-hop drive's length as bits offered per flow, so
// it is a quarter of a virtual second at 100 Mbit/s and one at 25 Mbit/s.
const rawDriveBits = 25e6

// rawHop is the outcome of one raw-hop drive.
type rawHop struct {
	WallS   float64
	Hops    uint64
	Records uint64 // trace records written, when a tracer was attached
}

// driveRawHop pushes constant-bit-rate packets through Network.Send on the
// workload's pairs and rate over a static table, with a handler that does
// nothing: the packet path with no transport on top. With traced set a
// trace.Tracer writing to io.Discard is attached, which prices a trace
// record.
func driveRawHop(w workload, topo *routing.Topology, pairs [][2]int, traced bool) (rawHop, error) {
	var out rawHop
	s := sim.NewSimulator()
	net, err := sim.NewNetwork(s, topo, w.netConfig())
	if err != nil {
		return out, err
	}
	net.InstallForwarding(routing.NewIncrementalEngine(topo, nil).Step(0, nil))
	var tr *trace.Tracer
	if traced {
		tr = trace.New(io.Discard, nil)
		tr.Attach(net)
	}
	const wire = 1500
	interval := sim.Seconds(wire * 8 / w.rateBps)
	for i, p := range pairs {
		flow := uint32(i + 1)
		src, dst := p[0], p[1]
		net.RegisterFlow(dst, flow, func(*sim.Packet) {})
		clk := net.Clock(src)
		var send func()
		send = func() {
			net.Send(src, dst, flow, wire, nil)
			clk.Schedule(interval, send)
		}
		send()
	}
	until := sim.Seconds(min(w.virtualS, rawDriveBits/w.rateBps))
	t0 := time.Now()
	s.Run(until)
	out.WallS = time.Since(t0).Seconds()
	for _, ds := range net.DeviceStats() {
		out.Hops += ds.TxPkts
	}
	if tr != nil {
		out.Records = tr.Count(trace.TX) + tr.Count(trace.RX) + tr.Count(trace.DROP)
		if err := tr.Detach(); err != nil {
			return out, err
		}
	}
	return out, nil
}
