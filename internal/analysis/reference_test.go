package analysis

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"hypatia/internal/check"
	"hypatia/internal/check/checktest"
	"hypatia/internal/constellation"
	"hypatia/internal/geom"
	"hypatia/internal/graph"
	"hypatia/internal/groundstation"
	"hypatia/internal/routing"
)

// referenceSweep is the algorithm the engine-backed sweep replaced, kept as
// its specification: a fresh Snapshot per step, one from-scratch Dijkstra
// per source, and per pair a materialised PathFromPrev path reduced with
// SatSequence. It returns what AnalyzePairs and PathChangeProfile must
// produce for cfg.
func referenceSweep(topo *routing.Topology, cfg Config) ([]PairStats, *ChangeProfile) {
	cfg = cfg.withDefaults()
	pairs := cfg.pairList(topo)
	steps := stepCount(cfg.Duration, cfg.Step)
	stats := make([]PairStats, len(pairs))
	for i, p := range pairs {
		stats[i] = PairStats{
			Src: p[0], Dst: p[1],
			GeodesicRTT: geom.GeodesicRTT(topo.GroundStations[p[0]].Position, topo.GroundStations[p[1]].Position),
			MinRTT:      math.Inf(1),
			MinHops:     math.MaxInt32,
		}
	}
	prof := &ChangeProfile{Step: cfg.Step, PerStep: make([]int, steps), PerPair: make([]int, len(pairs)), Pairs: pairs}
	lastStats := make([][]int, len(pairs)) // AnalyzePairs' memory: survives an outage
	lastProf := make([][]int, len(pairs))  // PathChangeProfile's: forgotten at one
	type tree struct {
		dist []float64
		prev []int32
	}
	trees := map[int]*tree{}
	for step := 0; step < steps; step++ {
		snap := topo.Snapshot(float64(step) * cfg.Step)
		clear(trees)
		for i, p := range pairs {
			tr := trees[p[0]]
			if tr == nil {
				tr = &tree{}
				tr.dist, tr.prev = snap.FromGS(p[0], nil, nil)
				trees[p[0]] = tr
			}
			st := &stats[i]
			st.Steps++
			dstNode := topo.GSNode(p[1])
			if math.IsInf(tr.dist[dstNode], 1) {
				st.DisconnectedSteps++
				lastProf[i] = nil
				continue
			}
			path := graph.PathFromPrev(tr.prev, topo.GSNode(p[0]), dstNode)
			rtt := 2 * tr.dist[dstNode] / geom.SpeedOfLight
			st.MinRTT = min(st.MinRTT, rtt)
			st.MaxRTT = max(st.MaxRTT, rtt)
			st.MinHops = min(st.MinHops, len(path)-1)
			st.MaxHops = max(st.MaxHops, len(path)-1)
			sats := routing.SatSequence(topo, path)
			if lastStats[i] != nil && !slices.Equal(lastStats[i], sats) {
				st.PathChanges++
			}
			lastStats[i] = sats
			if lastProf[i] != nil && !slices.Equal(lastProf[i], sats) {
				prof.PerStep[step]++
				prof.PerPair[i]++
			}
			lastProf[i] = sats
		}
	}
	return stats, prof
}

// requireMatchesReference runs both stepped analyses and requires every
// PairStats field and every ChangeProfile entry to equal the from-scratch
// reference's. It returns the reference's outputs for case-specific checks.
func requireMatchesReference(t *testing.T, topo *routing.Topology, cfg Config) ([]PairStats, *ChangeProfile) {
	t.Helper()
	wantStats, wantProf := referenceSweep(topo, cfg)
	stats, err := AnalyzePairs(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(wantStats) {
		t.Fatalf("%d pairs, reference has %d", len(stats), len(wantStats))
	}
	for i := range stats {
		if stats[i] != wantStats[i] {
			t.Fatalf("pair %d: %+v, reference %+v", i, stats[i], wantStats[i])
		}
	}
	prof, err := PathChangeProfile(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Step != wantProf.Step || !slices.Equal(prof.Pairs, wantProf.Pairs) {
		t.Fatalf("profile header (%v, %v), reference (%v, %v)", prof.Step, prof.Pairs, wantProf.Step, wantProf.Pairs)
	}
	if !slices.Equal(prof.PerStep, wantProf.PerStep) {
		t.Fatalf("PerStep %v, reference %v", prof.PerStep, wantProf.PerStep)
	}
	if !slices.Equal(prof.PerPair, wantProf.PerPair) {
		t.Fatalf("PerPair %v, reference %v", prof.PerPair, wantProf.PerPair)
	}
	return wantStats, wantProf
}

func paperTopo(t testing.TB, cfg constellation.Config) *routing.Topology {
	t.Helper()
	c, err := constellation.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := routing.NewTopology(c, groundstation.Top100Cities(), routing.GSLFree)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestSweepMatchesReferencePaperTopologies: Kuiper K1 and Starlink S1 with
// the paper's 100 cities, all 4 950 pairs, over the quick scale's 20 s
// horizon — at 2 s steps, so the carried settle orders go stale between
// instants and the repair's heap path is exercised as well as its sweep
// (and so the from-scratch Dijkstras, 3 000 per constellation between the
// reference and the hypatia_checks oracle, stay affordable under -race).
func TestSweepMatchesReferencePaperTopologies(t *testing.T) {
	for _, cfg := range []constellation.Config{constellation.Kuiper(), constellation.Starlink()} {
		topo := paperTopo(t, cfg)
		stats, prof := requireMatchesReference(t, topo, Config{Duration: 20, Step: 2})
		changes := 0
		for _, c := range prof.PerPair {
			changes += c
		}
		if len(stats) != 4950 || changes == 0 {
			t.Errorf("%s: %d pairs, %d path changes; the comparison is vacuous", cfg.Name, len(stats), changes)
		}
	}
}

// TestSweepMatchesReferenceOutages: Saint Petersburg sits above the mini
// shell's coverage and drops in and out. DisconnectedSteps must be counted,
// AnalyzePairs must compare across an outage and PathChangeProfile must not
// ("the first step after an outage is never a change") — the reference
// keeps the two memories apart, so a run in which they disagree proves the
// rule was exercised.
func TestSweepMatchesReferenceOutages(t *testing.T) {
	for _, policy := range []routing.GSLPolicy{routing.GSLFree, routing.GSLNearestOnly} {
		topo := miniTopoPolicy(t, policy)
		stats, prof := requireMatchesReference(t, topo, Config{Duration: 300, Step: 1})
		outages, acrossOutage := 0, 0
		for i, st := range stats {
			if st.DisconnectedSteps > 0 && st.DisconnectedSteps < st.Steps {
				outages++
				acrossOutage += st.PathChanges - prof.PerPair[i]
			}
		}
		if outages == 0 || acrossOutage == 0 {
			t.Errorf("policy %v: %d pairs with an outage, %d changes seen only across one; the outage rules are not exercised",
				policy, outages, acrossOutage)
		}
	}
}

// TestSweepMatchesReferencePairLists: explicit pair lists the grouping by
// source must not disturb — a reversed pair, a duplicate, a pair with
// itself — the distance exclusion, and a horizon that is not a whole number
// of steps in floating point.
func TestSweepMatchesReferencePairLists(t *testing.T) {
	topo := miniTopo(t)
	requireMatchesReference(t, topo, Config{
		Duration: 60, Step: 1,
		Pairs: [][2]int{{0, 1}, {3, 2}, {1, 0}, {0, 1}, {2, 2}, {4, 0}, {0, 4}},
	})
	stats, _ := requireMatchesReference(t, topo, Config{Duration: 30, Step: 1, ExcludePairsCloserThan: 6000e3})
	if len(stats) == 0 || len(stats) == 10 {
		t.Errorf("exclusion radius kept %d of 10 pairs; it must drop some and keep some", len(stats))
	}
	stats, prof := requireMatchesReference(t, topo, Config{Duration: 0.7, Step: 0.1})
	if stats[0].Steps != 8 || len(prof.PerStep) != 8 {
		t.Errorf("0.7 s at 0.1 s: %d steps analysed, %d profiled, want 8", stats[0].Steps, len(prof.PerStep))
	}
}

// TestSweepIndependentOfWorkerCount runs both stepped analyses over the
// outage topology at GOMAXPROCS 1, 2 and 4, which is how many workers share
// each step's trees, and requires every PairStats, PerStep and PerPair entry
// to be the same at every width. Pair state is owned by the pair's source,
// so it is the per-worker state — the walk scratch and the per-step change
// counts — that a wider split could corrupt; forcing at least two procs
// makes the race detector see the fan-out on any host.
func TestSweepIndependentOfWorkerCount(t *testing.T) {
	topo := miniTopoPolicy(t, routing.GSLNearestOnly)
	cfg := Config{Duration: 300, Step: 1}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var wantStats []PairStats
	var wantProf *ChangeProfile
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		stats, err := AnalyzePairs(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := PathChangeProfile(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if wantStats == nil {
			wantStats, wantProf = stats, prof
			continue
		}
		if !reflect.DeepEqual(stats, wantStats) {
			t.Errorf("GOMAXPROCS=%d: AnalyzePairs differs from GOMAXPROCS=1", procs)
		}
		if !reflect.DeepEqual(prof, wantProf) {
			t.Errorf("GOMAXPROCS=%d: PathChangeProfile differs from GOMAXPROCS=1:\nPerStep %v\nwant    %v\nPerPair %v\nwant    %v",
				procs, prof.PerStep, wantProf.PerStep, prof.PerPair, wantProf.PerPair)
		}
	}
	outages, changes := 0, 0
	for i, st := range wantStats {
		if st.DisconnectedSteps > 0 && st.DisconnectedSteps < st.Steps {
			outages++
		}
		changes += wantProf.PerPair[i]
	}
	if outages == 0 || changes == 0 {
		t.Errorf("%d pairs with an outage, %d path changes: the comparison is vacuous", outages, changes)
	}
}

// TestSweepLeavesNoHelper: AnalyzePairs, PathChangeProfile and RTTSeries
// stop their split's helpers before they return, and a configuration they
// reject starts none.
func TestSweepLeavesNoHelper(t *testing.T) {
	topo := miniTopo(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"AnalyzePairs", func() { _, _ = AnalyzePairs(topo, Config{Duration: 3, Step: 1}) }},
		{"PathChangeProfile", func() { _, _ = PathChangeProfile(topo, Config{Duration: 3, Step: 1}) }},
		{"RTTSeries", func() { RTTSeries(topo, 0, 1, 3, 1) }},
		{"rejected config", func() {
			if _, err := AnalyzePairs(topo, Config{Duration: 3, Pairs: [][2]int{{0, 1}, {0, topo.NumGS()}}}); err == nil {
				t.Error("a pair past the end was accepted")
			}
		}},
	} {
		before := runtime.NumGoroutine()
		tc.run()
		// The helpers have signalled their exit; give the runtime a moment
		// to retire the goroutines themselves.
		for i := 0; runtime.NumGoroutine() > before && i < 200; i++ {
			time.Sleep(5 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("%s: %d goroutines after it returned, %d before", tc.name, got, before)
		}
	}
}

// TestRTTSeriesMatchesSnapshot holds the one-root sweep to the from-scratch
// Snapshot.RTT at every step, disconnected steps included.
func TestRTTSeriesMatchesSnapshot(t *testing.T) {
	for _, policy := range []routing.GSLPolicy{routing.GSLFree, routing.GSLNearestOnly} {
		topo := miniTopoPolicy(t, policy)
		for _, pair := range [][2]int{{0, 1}, {4, 0}, {2, 2}} {
			series := RTTSeries(topo, pair[0], pair[1], 120, 1)
			disconnected := 0
			for i, got := range series {
				if want := topo.Snapshot(float64(i)).RTT(pair[0], pair[1]); got != want {
					t.Fatalf("policy %v pair %v step %d: RTT %v, snapshot says %v", policy, pair, i, got, want)
				}
				if math.IsInf(got, 1) {
					disconnected++
				}
			}
			if pair[0] == 4 && (disconnected == 0 || disconnected == len(series)) {
				t.Errorf("policy %v pair %v: %d of %d steps disconnected; outages not exercised", policy, pair, disconnected, len(series))
			}
		}
	}
	topo := paperTopo(t, constellation.Kuiper())
	for i, got := range RTTSeries(topo, 3, 57, 2, 0.1) {
		if want := topo.Snapshot(float64(i)*0.1).RTT(3, 57); got != want {
			t.Fatalf("K1 step %d: RTT %v, snapshot says %v", i, got, want)
		}
	}
}

// TestAllocGuardAnalysisStep pins the sweep's per-step body: after two
// warm-up steps, one further 100 ms step over Starlink S1 — delta snapshot,
// 99 repaired trees, 4 950 predecessor walks — allocates nothing. The
// measured step is revisited rather than advanced: what may still grow as
// the constellation moves on (a visibility list, a pair's longest path) is
// amortized and metered by the benchmark's alloc_mb_per_vsec, while anything
// allocated per step shows here however often it runs. The sweep is built
// at GOMAXPROCS 2, so its split has a helper, and the step measured is the
// fan-out's: the helper's wake-up and hand-back, and a walk scratch per
// worker, must allocate nothing either.
func TestAllocGuardAnalysisStep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sw, err := newSweep(paperTopo(t, constellation.Starlink()), Config{Duration: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.split.Close()
	if sw.split.Workers() != 2 {
		t.Fatalf("the sweep's split has %d workers at GOMAXPROCS 2, want 2", sw.split.Workers())
	}
	sw.visit = func(int, int, int, float64, int, bool) {}
	for sw.step = 0; sw.step < 2; sw.step++ {
		sw.advance()
	}
	checktest.AllocGuard(t, "analysis sweep step", 0, 1, sw.advance)
}

// TestIncrementalOracleExercised is check.sh's self-check hook for the
// analysis side of the engine: under -tags hypatia_checks every tree the
// sweep and RTTSeries read is re-derived from scratch, and this test fails
// if that instrumentation has gone dead.
func TestIncrementalOracleExercised(t *testing.T) {
	if !check.Enabled {
		t.Skip("oracle instrumentation requires -tags hypatia_checks")
	}
	topo := miniTopo(t)
	before := routing.OracleComparisons()
	if _, err := AnalyzePairs(topo, Config{Duration: 2, Step: 1}); err != nil {
		t.Fatal(err)
	}
	RTTSeries(topo, 0, 1, 2, 1)
	// Three steps; the ten pairs have four distinct sources, RTTSeries one.
	if got := routing.OracleComparisons(); got != before+3*4+3 {
		t.Fatalf("oracle comparisons went %d -> %d over 3 steps of 4+1 roots; analysis trees are not oracle-checked", before, got)
	}
}
