package routing

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hypatia/internal/check"
	"hypatia/internal/graph"
)

// sameGraph asserts two graphs carry bitwise-identical edge multisets in
// identical adjacency order.
func sameGraph(t *testing.T, tag string, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: %d nodes, want %d", tag, got.N(), want.N())
	}
	for v := 0; v < want.N(); v++ {
		ge, we := got.Neighbors(v), want.Neighbors(v)
		if len(ge) != len(we) {
			t.Fatalf("%s: node %d has %d edges, want %d", tag, v, len(ge), len(we))
		}
		for i := range we {
			if ge[i] != we[i] {
				t.Fatalf("%s: node %d edge %d = %+v, want %+v", tag, v, i, ge[i], we[i])
			}
		}
	}
}

// TestDeltaIntoMatchesSnapshotInto proves the delta layer's headline
// contract: every snapshot it produces — margin-cache visibility and all —
// is bitwise identical to a from-scratch SnapshotInto at the same instant,
// across long forward sequences, repeated instants, and backward jumps.
func TestDeltaIntoMatchesSnapshotInto(t *testing.T) {
	for _, policy := range []GSLPolicy{GSLFree, GSLNearestOnly} {
		topo := miniTopo(t, policy)
		var d DeltaState
		var fresh *Snapshot
		times := make([]float64, 0, 64)
		for i := 0; i < 50; i++ {
			times = append(times, float64(i)*0.1)
		}
		// Long strides expire margins; repeats and backward jumps must
		// also reproduce the scan exactly.
		times = append(times, 30, 90, 90, 45.05, 200, 0.1)
		for _, tsec := range times {
			snap, _ := topo.DeltaInto(tsec, &d)
			fresh = topo.SnapshotInto(tsec, fresh)
			if snap.T != fresh.T {
				t.Fatalf("t=%v: snapshot stamped %v", fresh.T, snap.T)
			}
			for i := range fresh.Pos {
				if snap.Pos[i] != fresh.Pos[i] {
					t.Fatalf("t=%v: node %d position %v, want %v", tsec, i, snap.Pos[i], fresh.Pos[i])
				}
			}
			sameGraph(t, "delta snapshot", snap.G, fresh.G)
		}
	}
}

// TestDeltaIntoChanges checks the changed-edge lists: applying each diff to
// the previous instant's graph must land exactly on the next one.
func TestDeltaIntoChanges(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	var d DeltaState
	type ekey struct{ a, b int32 }
	edges := map[ekey]float64{}
	for step := 0; step < 30; step++ {
		snap, changes := topo.DeltaInto(float64(step)*0.5, &d)
		if step == 0 {
			if changes != nil {
				t.Fatalf("first instant produced %d changes", len(changes))
			}
		} else {
			for _, ch := range changes {
				if ch.NewW < 0 {
					delete(edges, ekey{ch.A, ch.B})
				} else {
					edges[ekey{ch.A, ch.B}] = ch.NewW
				}
			}
		}
		want := map[ekey]float64{}
		for v := 0; v < snap.G.N(); v++ {
			for _, e := range snap.G.Neighbors(v) {
				if int(e.To) > v {
					want[ekey{int32(v), e.To}] = e.W
				}
			}
		}
		if step == 0 {
			edges = want
			continue
		}
		if len(edges) != len(want) {
			t.Fatalf("step %d: diff-tracked edge set has %d edges, snapshot has %d", step, len(edges), len(want))
		}
		for k, w := range want {
			if edges[k] != w {
				t.Fatalf("step %d: edge %v tracked as %v, snapshot says %v", step, k, edges[k], w)
			}
		}
	}
}

// engineOracle computes the from-scratch table the engine must match.
func engineOracle(topo *Topology, tsec float64, active []int) *ForwardingTable {
	snap := topo.Snapshot(tsec)
	ft := NewEmptyForwardingTable(tsec, topo.NumNodes(), topo.NumGS())
	var dist []float64
	var prev []int32
	if active == nil {
		for gs := 0; gs < topo.NumGS(); gs++ {
			dist, prev = snap.FromGS(gs, dist, prev)
			ft.SetDestination(gs, prev)
		}
		return ft
	}
	for _, gs := range active {
		dist, prev = snap.FromGS(gs, dist, prev)
		ft.SetDestination(gs, prev)
	}
	return ft
}

// TestIncrementalEngineMatchesScratch drives the engine through randomized
// instant sequences — drifting weights, visibility flips, coarse time jumps
// and changing active sets — and requires every table to be byte-identical
// to the from-scratch computation.
func TestIncrementalEngineMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, policy := range []GSLPolicy{GSLFree, GSLNearestOnly} {
		topo := miniTopo(t, policy)
		eng := NewIncrementalEngine(topo, nil)
		tsec := 0.0
		for step := 0; step < 40; step++ {
			tsec += []float64{0.1, 0.1, 0.1, 2.5, 30}[rng.Intn(5)]
			var active []int
			switch rng.Intn(3) {
			case 0: // all destinations
			case 1:
				active = []int{rng.Intn(topo.NumGS())}
			case 2:
				active = []int{0, 1 + rng.Intn(topo.NumGS()-1)}
			}
			got := eng.Step(tsec, active)
			want := engineOracle(topo, tsec, active)
			if !got.Equal(want) {
				t.Fatalf("policy %v step %d t=%v active=%v: incremental table differs from scratch",
					policy, step, tsec, active)
			}
			got.Release()
		}
	}
}

// TestSplitMatchesScratch runs one instant sequence through a Split at
// GOMAXPROCS 1, 2 and 4: the worker count is GOMAXPROCS capped at the roots,
// every root is visited once per Solve on a worker index inside it, every
// table the split draws and its trees fill matches the from-scratch one, and
// Close is idempotent. The next instant each Solve names is mispredicted in
// every way a caller can: a backward jump right after a prefetch, a
// prefetched instant never solved, and instants with no next at all. A
// Solve builds a graph unless the Solve before it prefetched its time, and
// a prefetch builds one, so the builds add up to exactly that.
func TestSplitMatchesScratch(t *testing.T) {
	topo := miniTopo(t, GSLNearestOnly)
	none := math.NaN()
	instants := []struct{ tsec, next float64 }{
		{0, 0.1}, {0.1, 0.2}, {0.2, 30}, {30, 30.1},
		{0.1, 0.2}, // a backward jump right after 30.1's prefetch
		{0.2, 5},   // 5 is never solved
		{0.3, none}, {0.4, 0.5},
		{0.5, none}, // the last instant: no next
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, roots := range [][]int{nil, {2}} {
			eng := NewIncrementalEngine(topo, nil)
			var ft *ForwardingTable
			visits := make([]int, topo.NumGS())
			var split *Split
			split = eng.NewSplit(roots, func(w, gs int, _ []float64, prev []int32) {
				if w < 0 || w >= split.Workers() {
					t.Errorf("GOMAXPROCS=%d: root %d visited on worker %d of %d", procs, gs, w, split.Workers())
				}
				visits[gs]++
				ft.SetDestination(gs, prev)
			})
			if want := min(procs, len(eng.roots(roots))); split.Workers() != want {
				t.Errorf("GOMAXPROCS=%d roots %v: %d workers, want %d", procs, roots, split.Workers(), want)
			}
			builds := 0
			ahead := none
			for _, in := range instants {
				if in.tsec != ahead {
					builds++
				}
				if ahead = in.next; !math.IsNaN(ahead) {
					builds++
				}
				ft = split.Table(in.tsec)
				clear(visits)
				split.Solve(in.tsec, in.next)
				for _, gs := range eng.roots(roots) {
					if visits[gs] != 1 {
						t.Errorf("GOMAXPROCS=%d t=%v: root %d visited %d times", procs, in.tsec, gs, visits[gs])
					}
				}
				if !ft.Equal(engineOracle(topo, in.tsec, roots)) {
					t.Fatalf("GOMAXPROCS=%d roots %v t=%v next=%v: split table differs from scratch", procs, roots, in.tsec, in.next)
				}
				ft.Release()
			}
			if got := split.Work().Builds; got != builds {
				t.Errorf("GOMAXPROCS=%d roots %v: %d graphs built, want %d", procs, roots, got, builds)
			}
			split.Close()
			split.Close()
		}
	}
}

// TestIncrementalEngineBackwardTime: the engine must stay exact when the
// clock jumps backward (replays, bisection debugging).
func TestIncrementalEngineBackwardTime(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	eng := NewIncrementalEngine(topo, nil)
	for _, tsec := range []float64{0, 0.1, 0.2, 50, 0.05, 0.1, 3} {
		got := eng.Step(tsec, nil)
		if want := engineOracle(topo, tsec, nil); !got.Equal(want) {
			t.Fatalf("t=%v: incremental table differs from scratch", tsec)
		}
		got.Release()
	}
}

// TestIncrementalOracleExercised is the check.sh self-check hook: under
// -tags hypatia_checks every tree behind a Step is oracle-verified, and this
// test fails if that instrumentation has gone dead (comparison count zero).
// internal/analysis has the same hook for the engine's other client.
func TestIncrementalOracleExercised(t *testing.T) {
	if !check.Enabled {
		t.Skip("oracle instrumentation requires -tags hypatia_checks")
	}
	topo := miniTopo(t, GSLFree)
	eng := NewIncrementalEngine(topo, nil)
	before := OracleComparisons()
	for i := 0; i < 3; i++ {
		eng.Step(float64(i)*0.1, nil).Release()
	}
	if got := OracleComparisons(); got < before+uint64(3*topo.NumGS()) {
		t.Fatalf("oracle comparisons went %d -> %d over 3 full-table steps; incremental path not exercised",
			before, got)
	}
}
