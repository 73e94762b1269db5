// Package analysis implements Hypatia's snapshot-based network analysis —
// the Go counterpart of the paper's networkx pipeline. It steps a topology
// through time at a fixed granularity, solves shortest-path trees at each
// instant on the engine packet runs use (routing.IncrementalEngine), and
// aggregates the per-pair statistics behind the paper's
// constellation-wide figures: RTT extremes relative to the geodesic
// (Fig 6), RTT variation (Fig 7), path-structure churn (Fig 8), and the
// sensitivity of those measurements to the time-step granularity (Fig 9).
package analysis

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"hypatia/internal/check"
	"hypatia/internal/geom"
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
	// Workers is ignored.
	//
	// Deprecated: ignored; the sweep runs on one goroutine. Removed with the
	// next benchmark PR.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Step == 0 {
		c.Step = 0.1
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

// pairVisitor receives one pair's shortest path at one step: its one-way
// length in meters, its link count, and whether its satellite sequence
// differs from the one the pair last had. A pair with no route gets +Inf, 0
// and false.
type pairVisitor func(step, pair int, dist float64, hops int, changed bool)

// sweep is the scaffold AnalyzePairs and PathChangeProfile share: the
// validated configuration, the pair list grouped by source ground station,
// the number of steps, and the engine that solves one shortest-path tree
// per source per step, with the per-pair path memory the change count
// compares against.
type sweep struct {
	topo  *routing.Topology
	cfg   Config
	pairs [][2]int
	steps int

	eng    *routing.IncrementalEngine
	roots  []int               // source ground stations, ascending
	byRoot [][]int             // byRoot[gs]: indices of the pairs whose source is gs
	onTree routing.TreeVisitor // sw.tree, bound once so a step allocates nothing

	// forgetOnOutage drops a pair's remembered path at a step with no
	// route, so the first step after an outage is never a change.
	forgetOnOutage bool

	// lastSats[i] is pair i's satellite sequence at the last step it had
	// one, listed from the destination back to the source (the order the
	// predecessor walk yields; only equality is ever asked of it). Empty
	// means nothing to compare against. sats is the walk's scratch.
	lastSats [][]int32
	sats     []int32

	step  int // the step being visited
	visit pairVisitor
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
	pairs := cfg.pairList(topo)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("analysis: no pairs to analyze")
	}
	byRoot := make([][]int, topo.NumGS())
	for i, p := range pairs {
		for _, gs := range p {
			if gs < 0 || gs >= topo.NumGS() {
				return nil, fmt.Errorf("analysis: pair %v names ground station %d outside the %d present", p, gs, topo.NumGS())
			}
		}
		byRoot[p[0]] = append(byRoot[p[0]], i)
	}
	sw := &sweep{
		topo: topo, cfg: cfg, pairs: pairs, steps: stepCount(cfg.Duration, cfg.Step),
		eng:      routing.NewIncrementalEngine(topo, nil),
		byRoot:   byRoot,
		lastSats: make([][]int32, len(pairs)),
	}
	for gs, group := range byRoot {
		if group != nil {
			sw.roots = append(sw.roots, gs)
		}
	}
	sw.onTree = sw.tree
	return sw, nil
}

// run steps the topology from t=0 through the duration. At every step it
// solves one tree per source and calls visit once per pair — grouped by
// source, not in pair order; per-pair statistics and per-step counts do not
// depend on the order within a step.
func (sw *sweep) run(visit pairVisitor) {
	sw.visit = visit
	for sw.step = 0; sw.step < sw.steps; sw.step++ {
		sw.advance()
	}
}

// advance solves and visits the current step's trees.
func (sw *sweep) advance() {
	sw.eng.Trees(float64(sw.step)*sw.cfg.Step, sw.roots, sw.onTree)
}

// tree visits every pair whose source is gs on that source's tree: the
// pair's distance is the tree's at the destination, and its path is the
// predecessor walk from the destination back to the root, which is counted
// and reduced to its satellites without being materialised.
func (sw *sweep) tree(gs int, dist []float64, prev []int32) {
	nSat := sw.topo.NumSats()
	root := sw.topo.GSNode(gs)
	for _, i := range sw.byRoot[gs] {
		dst := sw.topo.GSNode(sw.pairs[i][1])
		if math.IsInf(dist[dst], 1) {
			if sw.forgetOnOutage {
				sw.lastSats[i] = sw.lastSats[i][:0]
			}
			sw.visit(sw.step, i, dist[dst], 0, false)
			continue
		}
		hops := 0
		sats := sw.sats[:0]
		for v := dst; v != root; v = int(prev[v]) {
			if v < nSat {
				sats = append(sats, int32(v))
			}
			hops++
			if check.Enabled {
				check.Assert(hops < len(prev), "analysis: predecessor walk from gs %d toward gs %d loops", sw.pairs[i][1], gs)
			}
		}
		sw.sats = sats
		last := sw.lastSats[i]
		same := slices.Equal(last, sats)
		if !same {
			sw.lastSats[i] = append(last[:0], sats...)
		}
		sw.visit(sw.step, i, dist[dst], hops, len(last) > 0 && !same)
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
	sw.run(func(_, i int, dist float64, hops int, changed bool) { stats[i].observe(dist, hops, changed) })
	return stats, nil
}

// observe folds one step's shortest path into the pair's aggregates.
func (st *PairStats) observe(dist float64, hops int, changed bool) {
	st.Steps++
	if math.IsInf(dist, 1) {
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
	if hops < st.MinHops {
		st.MinHops = hops
	}
	if hops > st.MaxHops {
		st.MaxHops = hops
	}
	if changed {
		st.PathChanges++
	}
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
	// Unlike AnalyzePairs, a disconnected step forgets the path: the first
	// step after an outage is never a change.
	sw.forgetOnOutage = true
	sw.run(func(step, i int, _ float64, _ int, changed bool) {
		if changed {
			prof.PerStep[step]++
			prof.PerPair[i]++
		}
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
	out := make([]float64, stepCount(duration, step))
	eng := routing.NewIncrementalEngine(topo, nil)
	roots := []int{src}
	dstNode := topo.GSNode(dst)
	for i := range out {
		eng.Trees(float64(i)*step, roots, func(_ int, dist []float64, _ []int32) {
			out[i] = 2 * dist[dstNode] / geom.SpeedOfLight // +Inf stays +Inf
		})
	}
	return out
}
