// Package analysis implements Hypatia's snapshot-based network analysis —
// the Go counterpart of the paper's networkx pipeline. It steps a topology
// through time at a fixed granularity, computes shortest paths on each
// snapshot, and aggregates the per-pair statistics behind the paper's
// constellation-wide figures: RTT extremes relative to the geodesic
// (Fig 6), RTT variation (Fig 7), path-structure churn (Fig 8), and the
// sensitivity of those measurements to the time-step granularity (Fig 9).
package analysis

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"hypatia/internal/geom"
	"hypatia/internal/graph"
	"hypatia/internal/routing"
)

// ECDF is an empirical cumulative distribution over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from values (copied and sorted; NaNs rejected).
func NewECDF(vals []float64) *ECDF {
	s := make([]float64, 0, len(vals))
	for _, v := range vals {
		if math.IsNaN(v) {
			panic("analysis: NaN in ECDF input")
		}
		s = append(s, v)
	}
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// FractionBelow returns P(X <= x).
func (e *ECDF) FractionBelow(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Quantile returns the p-quantile (0..1) by nearest rank.
func (e *ECDF) Quantile(p float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(p*float64(len(e.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(e.sorted) {
		idx = len(e.sorted) - 1
	}
	return e.sorted[idx]
}

// Median returns the 0.5 quantile.
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// Points renders the ECDF as (value, cumulative fraction) pairs, one per
// sample, suitable for plotting the paper's CDF figures.
func (e *ECDF) Points() [][2]float64 {
	out := make([][2]float64, len(e.sorted))
	for i, v := range e.sorted {
		out[i] = [2]float64{v, float64(i+1) / float64(len(e.sorted))}
	}
	return out
}

// PairStats aggregates a ground-station pair's behavior over a stepped
// analysis window.
type PairStats struct {
	Src, Dst int // ground-station indices

	GeodesicRTT float64 // seconds: great-circle at c, the lower bound
	MinRTT      float64 // seconds, over connected steps; +Inf if never connected
	MaxRTT      float64 // seconds, over connected steps; 0 if never connected

	PathChanges int // number of steps whose satellite path differs from the previous connected step
	MinHops     int // links in the shortest observed path (incl. both GSLs)
	MaxHops     int // links in the longest observed path

	DisconnectedSteps int // steps with no route
	Steps             int // total steps analyzed
}

// Connected reports whether the pair ever had a route.
func (p PairStats) Connected() bool { return p.MaxRTT > 0 }

// MaxOverGeodesic returns MaxRTT / GeodesicRTT (the Fig 6 metric).
func (p PairStats) MaxOverGeodesic() float64 { return p.MaxRTT / p.GeodesicRTT }

// RTTSpread returns MaxRTT - MinRTT in seconds (the Fig 7(b) metric).
func (p PairStats) RTTSpread() float64 { return p.MaxRTT - p.MinRTT }

// RTTRatio returns MaxRTT / MinRTT (the Fig 7(c) metric).
func (p PairStats) RTTRatio() float64 { return p.MaxRTT / p.MinRTT }

// Config controls a stepped analysis.
type Config struct {
	// Duration in seconds (exclusive of the final step if not a multiple).
	Duration float64
	// Step is the snapshot granularity in seconds; default 0.1 (100 ms).
	Step float64
	// ExcludePairsCloserThan drops pairs whose endpoints are within this
	// many meters (the paper excludes < 500 km pairs). 0 keeps all.
	ExcludePairsCloserThan float64
	// Pairs restricts analysis to specific (src, dst) ground-station index
	// pairs; nil analyzes all unordered pairs.
	Pairs [][2]int
	// Workers bounds parallelism (per-source Dijkstras within each step);
	// 0 picks 8.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Step == 0 {
		c.Step = 0.1
	}
	if c.Workers == 0 {
		c.Workers = 8
	}
	return c
}

// pairList materializes the pair set for a topology under the config.
func (c Config) pairList(topo *routing.Topology) [][2]int {
	if c.Pairs != nil {
		return c.Pairs
	}
	ng := topo.NumGS()
	var out [][2]int
	for i := 0; i < ng; i++ {
		for j := i + 1; j < ng; j++ {
			if c.ExcludePairsCloserThan > 0 {
				d := geom.Haversine(topo.GroundStations[i].Position, topo.GroundStations[j].Position)
				if d < c.ExcludePairsCloserThan {
					continue
				}
			}
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// stepResult carries one source GS's Dijkstra output for one snapshot.
type stepResult struct {
	dist []float64
	prev []int32
}

// sweep is the scaffold AnalyzePairs and PathChangeProfile share: the
// validated configuration, the pair list, the source ground stations that
// need a shortest-path tree per step, and the number of steps.
type sweep struct {
	topo  *routing.Topology
	cfg   Config
	pairs [][2]int
	srcs  []int // ascending
	steps int
}

// newSweep applies the config's defaults and rejects what the stepping loop
// cannot run on.
func newSweep(topo *routing.Topology, cfg Config) (*sweep, error) {
	cfg = cfg.withDefaults()
	if !(cfg.Duration > 0) {
		return nil, fmt.Errorf("analysis: non-positive duration")
	}
	if !(cfg.Step > 0) {
		return nil, fmt.Errorf("analysis: non-positive step %v", cfg.Step)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("analysis: negative worker count %d", cfg.Workers)
	}
	pairs := cfg.pairList(topo)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("analysis: no pairs to analyze")
	}
	srcSet := map[int]bool{}
	for _, p := range pairs {
		for _, gs := range p {
			if gs < 0 || gs >= topo.NumGS() {
				return nil, fmt.Errorf("analysis: pair %v names ground station %d outside the %d present", p, gs, topo.NumGS())
			}
		}
		srcSet[p[0]] = true
	}
	srcs := make([]int, 0, len(srcSet))
	for s := range srcSet {
		srcs = append(srcs, s)
	}
	sort.Ints(srcs)
	return &sweep{topo: topo, cfg: cfg, pairs: pairs, srcs: srcs, steps: stepCount(cfg.Duration, cfg.Step)}, nil
}

// run steps the topology from t=0 through the duration. At every step it
// solves one tree per source and calls visit once per pair, in pair order,
// with the pair's one-way distance in meters and its node path; a pair with
// no route gets +Inf and a nil path.
func (sw *sweep) run(visit func(step, pair int, dist float64, path []int)) {
	trees := make(map[int]*stepResult, len(sw.srcs))
	for _, s := range sw.srcs {
		trees[s] = &stepResult{}
	}
	for step := 0; step < sw.steps; step++ {
		snap := sw.topo.Snapshot(float64(step) * sw.cfg.Step)
		runDijkstras(snap, sw.srcs, trees, sw.cfg.Workers)
		for i, p := range sw.pairs {
			tree := trees[p[0]]
			dstNode := sw.topo.GSNode(p[1])
			dist := tree.dist[dstNode]
			if math.IsInf(dist, 1) {
				visit(step, i, dist, nil)
				continue
			}
			visit(step, i, dist, graph.PathFromPrev(tree.prev, sw.topo.GSNode(p[0]), dstNode))
		}
	}
}

// AnalyzePairs steps the topology from t=0 through cfg.Duration and returns
// aggregated statistics for every pair. A "path change" is counted when the
// satellite sequence differs between two successive connected steps, the
// paper's definition.
func AnalyzePairs(topo *routing.Topology, cfg Config) ([]PairStats, error) {
	sw, err := newSweep(topo, cfg)
	if err != nil {
		return nil, err
	}
	stats := make([]PairStats, len(sw.pairs))
	lastPath := make([][]int, len(sw.pairs)) // satellite sequence at the last connected step
	for i, p := range sw.pairs {
		stats[i] = PairStats{
			Src: p[0], Dst: p[1],
			GeodesicRTT: geom.GeodesicRTT(
				topo.GroundStations[p[0]].Position,
				topo.GroundStations[p[1]].Position),
			MinRTT:  math.Inf(1),
			MinHops: math.MaxInt32,
		}
	}
	sw.run(func(_, i int, dist float64, path []int) {
		st := &stats[i]
		st.Steps++
		if path == nil {
			st.DisconnectedSteps++
			return
		}
		rtt := 2 * dist / geom.SpeedOfLight
		if rtt < st.MinRTT {
			st.MinRTT = rtt
		}
		if rtt > st.MaxRTT {
			st.MaxRTT = rtt
		}
		hops := len(path) - 1
		if hops < st.MinHops {
			st.MinHops = hops
		}
		if hops > st.MaxHops {
			st.MaxHops = hops
		}
		sats := routing.SatSequence(topo, path)
		if lastPath[i] != nil && !intSliceEqual(lastPath[i], sats) {
			st.PathChanges++
		}
		lastPath[i] = sats
	})
	return stats, nil
}

// runDijkstras fills trees for each source on worker goroutines.
func runDijkstras(snap *routing.Snapshot, srcs []int, trees map[int]*stepResult, workers int) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				tr := trees[s]
				tr.dist, tr.prev = snap.FromGS(s, tr.dist, tr.prev)
			}
		}()
	}
	for _, s := range srcs {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
}

func intSliceEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ChangeProfile is the output of PathChangeProfile: per-step and per-pair
// path-change counts at one granularity.
type ChangeProfile struct {
	Step float64 // seconds
	// PerStep[k] is the number of pairs whose path changed between step
	// k-1 and step k (PerStep[0] is always 0).
	PerStep []int
	// PerPair[i] is the total change count for pair i (cfg order).
	PerPair []int
	Pairs   [][2]int
}

// PathChangeProfile computes path-change counts at the given granularity —
// the raw material of Fig 9, where coarser forwarding-state updates are
// shown to miss path changes entirely.
func PathChangeProfile(topo *routing.Topology, cfg Config) (*ChangeProfile, error) {
	sw, err := newSweep(topo, cfg)
	if err != nil {
		return nil, err
	}
	prof := &ChangeProfile{
		Step:    sw.cfg.Step,
		PerStep: make([]int, sw.steps),
		PerPair: make([]int, len(sw.pairs)),
		Pairs:   sw.pairs,
	}
	lastPath := make([][]int, len(sw.pairs))
	sw.run(func(step, i int, _ float64, path []int) {
		if path == nil {
			// Unlike AnalyzePairs, a disconnected step forgets the path: the
			// first step after an outage is never a change.
			lastPath[i] = nil
			return
		}
		sats := routing.SatSequence(topo, path)
		if lastPath[i] != nil && !intSliceEqual(lastPath[i], sats) {
			prof.PerStep[step]++
			prof.PerPair[i]++
		}
		lastPath[i] = sats
	})
	return prof, nil
}

// MissedChanges compares a coarse profile against a fine-grained baseline
// over the same pairs and returns, per pair, how many changes the coarse
// granularity missed (never negative).
func MissedChanges(baseline, coarse *ChangeProfile) ([]int, error) {
	if len(baseline.PerPair) != len(coarse.PerPair) {
		return nil, fmt.Errorf("analysis: profiles cover different pair sets")
	}
	out := make([]int, len(baseline.PerPair))
	for i := range out {
		d := baseline.PerPair[i] - coarse.PerPair[i]
		if d < 0 {
			d = 0
		}
		out[i] = d
	}
	return out, nil
}

// stepCount is the number of instants 0, step, 2·step, ... that fit in
// [0, duration]. The tolerance keeps a quotient that is a whole number on
// paper (0.7/0.1) from truncating one short of it in floating point.
func stepCount(duration, step float64) int {
	return int(math.Floor(duration/step+1e-9)) + 1
}

// RTTSeries returns the computed RTT (seconds; +Inf when disconnected) of
// one pair at every step — the "Computed" curve of Fig 3.
func RTTSeries(topo *routing.Topology, src, dst int, duration, step float64) []float64 {
	n := stepCount(duration, step)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = topo.Snapshot(float64(i)*step).RTT(src, dst)
	}
	return out
}
