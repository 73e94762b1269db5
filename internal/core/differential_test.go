package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hypatia/internal/constellation"
	"hypatia/internal/groundstation"
	"hypatia/internal/routing"
	"hypatia/internal/sim"
)

// differentialTopo builds the topology the differential harness runs over.
func differentialTopo(t *testing.T, policy routing.GSLPolicy) *routing.Topology {
	t.Helper()
	c, err := constellation.Generate(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	topo, err := routing.NewTopology(c, fourCities(t), policy)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// randomInstants draws n distinct randomized update instants, sorted the
// way a run would schedule them.
func randomInstants(rng *rand.Rand, n int) []sim.Time {
	times := make([]sim.Time, n)
	at := sim.Time(0)
	for i := range times {
		at += sim.Time(1+rng.Intn(400)) * 10 * sim.Millisecond
		times[i] = at
	}
	return times
}

// serialReference computes the forwarding state for one instant from
// scratch: a fresh snapshot plus the specification sweep.
func serialReference(topo *routing.Topology, at sim.Time, active []int) *routing.ForwardingTable {
	return topo.Snapshot(at.Seconds()).ForwardingTableFor(active)
}

// TestDifferentialPipelineMatchesSerial is the differential harness for the
// forwarding-state producer: over randomized update instants, both GSL
// policies, and randomized active-destination subsets (including nil =
// all), every table the pipeline delivers must be byte-identical to the
// serial from-scratch computation.
func TestDifferentialPipelineMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, policy := range []routing.GSLPolicy{routing.GSLFree, routing.GSLNearestOnly} {
		topo := differentialTopo(t, policy)
		for trial := 0; trial < 3; trial++ {
			times := randomInstants(rng, 8)
			// Trial 0 computes all destinations; later trials a random
			// nonempty subset.
			var active []int
			if trial > 0 {
				for gs := 0; gs < topo.NumGS(); gs++ {
					if rng.Intn(2) == 0 {
						active = append(active, gs)
					}
				}
				if len(active) == 0 {
					active = []int{rng.Intn(topo.NumGS())}
				}
			}
			p := newPipeline(topo, nil, active, times)
			for i, at := range times {
				got := <-p.tables
				want := serialReference(topo, at, active)
				if !got.Equal(want) {
					t.Fatalf("policy %v trial %d instant %d (t=%v): pipeline table differs from serial",
						policy, trial, i, at)
				}
				got.Release()
			}
			p.close()
		}
	}
}

// TestDifferentialPipelineCustomStrategy runs the same differential check
// through the custom-Strategy path: an AvoidNodes strategy called inline by
// the producer must match calling the strategy directly on a fresh serial
// snapshot.
func TestDifferentialPipelineCustomStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	topo := differentialTopo(t, routing.GSLFree)
	avoid := []int{rng.Intn(topo.NumSats()), rng.Intn(topo.NumSats())}
	strategy := AvoidNodes(ShortestPath, avoid...)
	times := randomInstants(rng, 6)
	active := []int{0, 2}
	p := newPipeline(topo, strategy, active, times)
	for i, at := range times {
		got := <-p.tables
		want := strategy(topo.Snapshot(at.Seconds()), active)
		if !got.Equal(want) {
			t.Fatalf("instant %d (t=%v): pipelined strategy table differs from direct call", i, at)
		}
		got.Release()
	}
	p.close()
}

// runIncrementalSequence drives one randomized instant sequence through a
// routing.IncrementalEngine — drifting weights, GSL visibility flips and
// per-instant active sets — and requires every table to be byte-identical
// to ShortestPath on a fresh serial snapshot, the exact computation the
// incremental engine replaces. It reports the number of instants verified.
func runIncrementalSequence(t *testing.T, topo *routing.Topology, rng *rand.Rand, instants int) int {
	t.Helper()
	eng := routing.NewIncrementalEngine(topo, nil)
	at := sim.Time(0)
	for step := 0; step < instants; step++ {
		// Mostly small 100 ms drifts, occasionally a coarse jump that
		// forces real visibility flips between consecutive instants.
		if rng.Intn(4) == 0 {
			at += sim.Time(1+rng.Intn(300)) * sim.Second / 10
		} else {
			at += 100 * sim.Millisecond
		}
		var active []int
		switch rng.Intn(3) {
		case 0: // all destinations
		case 1:
			active = []int{rng.Intn(topo.NumGS())}
		default:
			for gs := 0; gs < topo.NumGS(); gs++ {
				if rng.Intn(2) == 0 {
					active = append(active, gs)
				}
			}
			if len(active) == 0 {
				active = nil
			}
		}
		got := eng.Step(at.Seconds(), active)
		if want := ShortestPath(topo.Snapshot(at.Seconds()), active); !got.Equal(want) {
			t.Fatalf("step %d (t=%v, active=%v): incremental table differs from from-scratch oracle",
				step, at, active)
		}
		got.Release()
	}
	return instants
}

// TestDifferentialIncrementalSequences is the acceptance harness for the
// incremental engine: 100+ independently randomized instant sequences per
// run, spanning both GSL policies, fuzzed weight drifts and visibility
// flips (time steps from 100 ms to 30 s) and fuzzed active sets, every
// instant proven byte-identical to the from-scratch computation.
func TestDifferentialIncrementalSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sequences, verified := 0, 0
	for _, policy := range []routing.GSLPolicy{routing.GSLFree, routing.GSLNearestOnly} {
		topo := differentialTopo(t, policy)
		for trial := 0; trial < 52; trial++ {
			verified += runIncrementalSequence(t, topo, rng, 4+rng.Intn(4))
			sequences++
		}
	}
	if sequences < 100 {
		t.Fatalf("only %d sequences run; the acceptance bar is 100", sequences)
	}
	t.Logf("verified %d instants across %d randomized sequences", verified, sequences)
}

// FuzzIncrementalForwarding lets the fuzzer pick the sequence shape. Every
// input replays a full differential comparison, so any counterexample the
// fuzzer finds is a real byte-level divergence between the incremental and
// from-scratch engines.
func FuzzIncrementalForwarding(f *testing.F) {
	f.Add(int64(1), uint8(4), false)
	f.Add(int64(7), uint8(8), true)
	f.Add(int64(42), uint8(12), false)
	f.Add(int64(1234), uint8(6), true)
	f.Fuzz(func(t *testing.T, seed int64, instants uint8, nearest bool) {
		if instants == 0 || instants > 16 {
			t.Skip()
		}
		policy := routing.GSLFree
		if nearest {
			policy = routing.GSLNearestOnly
		}
		topo := differentialTopo(t, policy)
		runIncrementalSequence(t, topo, rand.New(rand.NewSource(seed)), int(instants))
	})
}

// TestDifferentialTableReuseAcrossInstants stresses the recycle path the
// way a run uses it — release table i only after popping table i+1 — and
// re-verifies each table against the serial reference right before its
// release, proving the pooled arenas carry no state between instants.
func TestDifferentialTableReuseAcrossInstants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	topo := differentialTopo(t, routing.GSLFree)
	// More instants than the pipeline holds in flight, so the producer
	// blocks on the consumer and later tables reuse released buffers.
	times := randomInstants(rng, 2*tablesInFlight+8)
	p := newPipeline(topo, nil, nil, times)
	var held *routing.ForwardingTable
	heldIdx := -1
	for i, at := range times {
		_ = at
		ft := <-p.tables
		if held != nil {
			if !held.Equal(serialReference(topo, times[heldIdx], nil)) {
				t.Fatalf("table for instant %d mutated while instant %d was being computed", heldIdx, i)
			}
			held.Release()
		}
		held, heldIdx = ft, i
	}
	if !held.Equal(serialReference(topo, times[heldIdx], nil)) {
		t.Fatalf("final table differs from serial reference")
	}
	held.Release()
	p.close()
}

// TestPipelineHoldsAtMostReservedTables makes the pipeline's memory bound a
// test instead of a benchmark reading: a consumer that holds the installed
// table, releases it and only then takes the next — the install event's
// order — and dawdles at random, so that the producer runs ahead, blocks and
// is caught up with in turn, must only ever see the tablesInFlight+1 tables
// the producer reserved before its first step. One table more, and some run
// allocates it in its timed region whenever the scheduler feels like it.
func TestPipelineHoldsAtMostReservedTables(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	topo := differentialTopo(t, routing.GSLFree)
	times := randomInstants(rng, 4*tablesInFlight)
	p := newPipeline(topo, nil, nil, times)
	defer p.close()
	seen := map[*routing.ForwardingTable]bool{}
	var installed *routing.ForwardingTable
	for range times {
		installed.Release()
		installed = <-p.tables
		seen[installed] = true
		if rng.Intn(3) == 0 {
			time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
		}
	}
	installed.Release()
	if len(seen) > tablesInFlight+1 {
		t.Errorf("the consumer saw %d distinct tables; the pipeline reserves %d and must never need another", len(seen), tablesInFlight+1)
	}
}

// tableHash is FNV-64a over a table's instant and every next-hop entry.
func tableHash(ft *routing.ForwardingTable) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(ft.T))
	h.Write(b[:])
	for dst := 0; dst < ft.NumGS; dst++ {
		for node := 0; node < ft.NumNodes; node++ {
			binary.LittleEndian.PutUint32(b[:4], uint32(ft.NextHop(node, dst)))
			h.Write(b[:4])
		}
	}
	return h.Sum64()
}

// TestProducerTablesIndependentOfWorkerCount runs one instant sequence —
// 100 ms steps with a few coarse jumps, over the 100 cities — through the
// producer at GOMAXPROCS 1, 2 and 4, which is how many workers share each
// instant's trees. Every installed table must hash the same at every worker
// count and match the ShortestPath specification sweep. Forcing at least
// two procs makes the race detector see the fan-out even on one hardware
// thread. The producer names each instant's successor correctly, so the
// same producer state is then driven through mispredicted successors: a
// backward jump right after a prefetch, a prefetched instant never solved,
// and instants with no successor named; the tables must not move.
func TestProducerTablesIndependentOfWorkerCount(t *testing.T) {
	c, err := constellation.Generate(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	topo, err := routing.NewTopology(c, groundstation.Top100Cities(), routing.GSLFree)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	times := make([]sim.Time, 12)
	for i := 1; i < len(times); i++ {
		step := 100 * sim.Millisecond
		if rng.Intn(4) == 0 {
			step = sim.Time(1+rng.Intn(300)) * sim.Second / 10
		}
		times[i] = times[i-1] + step
	}
	want := make([]uint64, len(times))
	for i, at := range times {
		want[i] = tableHash(ShortestPath(topo.Snapshot(at.Seconds()), nil))
	}
	// Indices into times: the instant solved and the successor named for it
	// (-1: none).
	mispredicted := []struct{ at, next int }{
		{0, 1}, {1, 2}, {2, 3},
		{3, 4}, // then a backward jump to 1
		{1, 2},
		{2, 9}, // 9 is never solved
		{5, -1}, {6, 7}, {7, 11},
		{11, -1}, // the last instant
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		p := newPipeline(topo, nil, nil, times)
		for i := range times {
			ft := <-p.tables
			if got := tableHash(ft); got != want[i] {
				t.Errorf("GOMAXPROCS=%d instant %d (t=%v): table hash %016x, specification %016x", procs, i, times[i], got, want[i])
			}
			ft.Release()
		}
		p.close()

		ps := newProducerState(topo, nil)
		for _, in := range mispredicted {
			next := math.NaN()
			if in.next >= 0 {
				next = times[in.next].Seconds()
			}
			ft := ps.table(times[in.at].Seconds(), next)
			if got := tableHash(ft); got != want[in.at] {
				t.Errorf("GOMAXPROCS=%d instant %d (t=%v) named successor %d: table hash %016x, specification %016x",
					procs, in.at, times[in.at], in.next, got, want[in.at])
			}
			ft.Release()
		}
		ps.split.Close()
	}
}

// TestPipelineBlanksInactiveColumns runs a destination subset through a
// pipeline long enough that its reserved tables are each reused: the
// producer sets to -1 only the columns of destinations outside the list —
// every other column is a tree's — and a reserved table starts zeroed, so
// every table must still read -1 in every inactive column, match the
// specification sweep, and have cost exactly those columns.
func TestPipelineBlanksInactiveColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	topo := differentialTopo(t, routing.GSLFree)
	active := []int{2, 0}
	times := randomInstants(rng, 4*(tablesInFlight+1))
	p := newPipeline(topo, nil, active, times)
	defer p.close()
	seen := map[*routing.ForwardingTable]bool{}
	for _, at := range times {
		ft := <-p.tables
		seen[ft] = true
		for _, dst := range []int{1, 3} {
			for node := range topo.NumNodes() {
				if nh := ft.NextHop(node, dst); nh != -1 {
					t.Fatalf("t=%v: inactive destination %d reads next hop %d at node %d, want -1", at, dst, nh, node)
				}
			}
		}
		if !ft.Equal(serialReference(topo, at, active)) {
			t.Fatalf("t=%v: table differs from the specification sweep", at)
		}
		ft.Release()
	}
	if recycles := len(times) - len(seen); recycles < 5 {
		t.Errorf("%d table recycles over %d instants; the test needs at least 5", recycles, len(times))
	}
}
