package analysis

import (
	"math"
	"strings"
	"testing"

	"hypatia/internal/constellation"
	"hypatia/internal/groundstation"
	"hypatia/internal/routing"
)

func miniTopo(t *testing.T) *routing.Topology {
	t.Helper()
	return miniTopoPolicy(t, routing.GSLFree)
}

func miniTopoPolicy(t *testing.T, policy routing.GSLPolicy) *routing.Topology {
	t.Helper()
	cfg := constellation.Config{
		Name: "Mini",
		Shells: []constellation.Shell{{
			Name: "M1", AltitudeKm: 630, Orbits: 16, SatsPerOrbit: 16,
			IncDeg: 53,
		}},
		MinElevDeg: 25,
	}
	c, err := constellation.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := groundstation.Top100Cities()
	var gss []groundstation.GS
	for i, name := range []string{"Istanbul", "Nairobi", "Manila", "Rio de Janeiro", "Saint Petersburg"} {
		g := groundstation.MustByName(all, name)
		g.ID = i
		gss = append(gss, g)
	}
	topo, err := routing.NewTopology(c, gss, policy)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2, 4})
	if e.N() != 4 {
		t.Errorf("N = %d", e.N())
	}
	if got := e.FractionBelow(2); got != 0.5 {
		t.Errorf("FractionBelow(2) = %v", got)
	}
	if got := e.FractionBelow(0.5); got != 0 {
		t.Errorf("FractionBelow(0.5) = %v", got)
	}
	if got := e.FractionBelow(4); got != 1 {
		t.Errorf("FractionBelow(4) = %v", got)
	}
	if got := e.Median(); got != 2 {
		t.Errorf("Median = %v", got)
	}
	if got := e.Quantile(1); got != 4 {
		t.Errorf("Q(1) = %v", got)
	}
	if got := e.Quantile(0); got != 1 {
		t.Errorf("Q(0) = %v", got)
	}
	pts := e.Points()
	if len(pts) != 4 || pts[0][0] != 1 || pts[0][1] != 0.25 || pts[3][1] != 1 {
		t.Errorf("Points = %v", pts)
	}
}

func TestECDFEmptyAndNaN(t *testing.T) {
	e := NewECDF(nil)
	if e.FractionBelow(1) != 0 {
		t.Error("empty ECDF fraction")
	}
	if !math.IsNaN(e.Quantile(0.5)) {
		t.Error("empty ECDF quantile should be NaN")
	}
	defer func() {
		if recover() == nil {
			t.Error("NaN accepted")
		}
	}()
	NewECDF([]float64{math.NaN()})
}

func TestAnalyzePairsBasics(t *testing.T) {
	topo := miniTopo(t)
	stats, err := AnalyzePairs(topo, Config{Duration: 30, Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 10 { // C(5,2)
		t.Fatalf("pairs = %d", len(stats))
	}
	for _, st := range stats {
		if st.Steps != 31 {
			t.Errorf("pair %d-%d: steps = %d", st.Src, st.Dst, st.Steps)
		}
		if !st.Connected() {
			continue
		}
		if st.MinRTT <= st.GeodesicRTT {
			t.Errorf("pair %d-%d: min RTT %v below geodesic %v", st.Src, st.Dst, st.MinRTT, st.GeodesicRTT)
		}
		if st.MaxRTT < st.MinRTT {
			t.Errorf("pair %d-%d: max < min RTT", st.Src, st.Dst)
		}
		if st.MinHops < 2 {
			t.Errorf("pair %d-%d: min hops %d < 2", st.Src, st.Dst, st.MinHops)
		}
		if st.MaxHops < st.MinHops {
			t.Errorf("pair %d-%d: hop bounds inverted", st.Src, st.Dst)
		}
		if st.MaxOverGeodesic() < 1 {
			t.Errorf("pair %d-%d: max/geodesic %v < 1", st.Src, st.Dst, st.MaxOverGeodesic())
		}
		if st.RTTSpread() < 0 || st.RTTRatio() < 1 {
			t.Errorf("pair %d-%d: spread/ratio invalid", st.Src, st.Dst)
		}
	}
}

func TestAnalyzePairsDetectsChanges(t *testing.T) {
	// Over minutes, a small constellation must produce at least one path
	// change somewhere.
	topo := miniTopo(t)
	stats, err := AnalyzePairs(topo, Config{Duration: 120, Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, st := range stats {
		total += st.PathChanges
	}
	if total == 0 {
		t.Error("no path changes in 2 minutes of LEO motion")
	}
}

func TestAnalyzePairsHighLatitudeDisconnection(t *testing.T) {
	// Saint Petersburg (index 4) must see disconnected steps on a 53-degree
	// shell at 25-degree min elevation with only 256 satellites.
	topo := miniTopo(t)
	stats, err := AnalyzePairs(topo, Config{
		Duration: 120, Step: 1,
		Pairs: [][2]int{{0, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].DisconnectedSteps == 0 {
		t.Skip("mini constellation happened to cover St. Petersburg throughout")
	}
	if stats[0].DisconnectedSteps == stats[0].Steps && stats[0].Connected() {
		t.Error("inconsistent connection bookkeeping")
	}
}

func TestAnalyzePairsExplicitPairsAndExclusion(t *testing.T) {
	topo := miniTopo(t)
	stats, err := AnalyzePairs(topo, Config{
		Duration: 5, Step: 1,
		Pairs: [][2]int{{1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Src != 1 || stats[0].Dst != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// A huge exclusion radius leaves no pairs.
	if _, err := AnalyzePairs(topo, Config{
		Duration: 5, Step: 1, ExcludePairsCloserThan: 1e9,
	}); err == nil {
		t.Error("no-pairs case did not error")
	}
}

// TestAnalyzePairsRejectsBadDuration: both stepped analyses return an
// analysis error — not an empty result (negative Step, or an infinite
// Duration whose step count overflows), a NaN-weight panic (infinite Step)
// or an index panic (pair outside the ground stations) — for every
// configuration the stepping loop cannot run on.
func TestAnalyzePairsRejectsBadDuration(t *testing.T) {
	topo := miniTopo(t)
	for name, cfg := range map[string]Config{
		"zero duration":     {Duration: 0},
		"negative duration": {Duration: -1},
		"NaN duration":      {Duration: math.NaN()},
		"infinite duration": {Duration: math.Inf(1)},
		"negative step":     {Duration: 10, Step: -0.1},
		"infinite step":     {Duration: 10, Step: math.Inf(1)},
		"negative pair":     {Duration: 10, Pairs: [][2]int{{0, 1}, {-1, 2}}},
		"pair past the end": {Duration: 10, Pairs: [][2]int{{0, topo.NumGS()}}},
	} {
		if _, err := AnalyzePairs(topo, cfg); err == nil || !strings.HasPrefix(err.Error(), "analysis: ") {
			t.Errorf("AnalyzePairs, %s: error %v, want an analysis error", name, err)
		}
		if _, err := PathChangeProfile(topo, cfg); err == nil || !strings.HasPrefix(err.Error(), "analysis: ") {
			t.Errorf("PathChangeProfile, %s: error %v, want an analysis error", name, err)
		}
	}
}

func TestPathChangeProfileGranularity(t *testing.T) {
	// Coarser steps must observe at most as many changes per pair as the
	// fine baseline (missing those that happen within one interval), which
	// is the Fig 9 phenomenon.
	topo := miniTopo(t)
	pairs := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	fine, err := PathChangeProfile(topo, Config{Duration: 120, Step: 1, Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := PathChangeProfile(topo, Config{Duration: 120, Step: 10, Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	missed, err := MissedChanges(fine, coarse)
	if err != nil {
		t.Fatal(err)
	}
	for i := range missed {
		if missed[i] < 0 {
			t.Fatalf("negative missed count at %d", i)
		}
	}
	// Total changes at the fine granularity can only exceed or match.
	sum := func(xs []int) int {
		total := 0
		for _, x := range xs {
			total += x
		}
		return total
	}
	if sum(fine.PerPair) < sum(coarse.PerPair) {
		t.Errorf("fine profile saw fewer changes (%d) than coarse (%d)",
			sum(fine.PerPair), sum(coarse.PerPair))
	}
	if len(fine.PerStep) != 121 || len(coarse.PerStep) != 13 {
		t.Errorf("step counts: %d, %d", len(fine.PerStep), len(coarse.PerStep))
	}
	if fine.PerStep[0] != 0 {
		t.Error("first step cannot have changes")
	}
}

func TestMissedChangesMismatchedProfiles(t *testing.T) {
	a := &ChangeProfile{PerPair: []int{1, 2}}
	b := &ChangeProfile{PerPair: []int{1}}
	if _, err := MissedChanges(a, b); err == nil {
		t.Error("mismatched profiles accepted")
	}
}

func TestRTTSeries(t *testing.T) {
	topo := miniTopo(t)
	series := RTTSeries(topo, 0, 1, 10, 1)
	if len(series) != 11 {
		t.Fatalf("len = %d", len(series))
	}
	connected := 0
	for _, r := range series {
		if !math.IsInf(r, 1) {
			connected++
			if r <= 0 || r > 1 {
				t.Fatalf("implausible RTT %v", r)
			}
		}
	}
	if connected == 0 {
		t.Skip("pair disconnected throughout in mini constellation")
	}
}

// TestStepCount pins the instant count on horizons whose float quotient
// lands just below a whole number: 0.7/0.1 is 6.999..., and the instant at
// 0.7 s must still be analysed.
func TestStepCount(t *testing.T) {
	for _, tc := range []struct {
		duration, step float64
		want           int
	}{
		{0.3, 0.1, 4}, {0.7, 0.1, 8}, {1, 0.3, 4}, {30, 0.1, 301}, {200, 0.05, 4001},
	} {
		if got := stepCount(tc.duration, tc.step); got != tc.want {
			t.Errorf("stepCount(%v, %v) = %d, want %d", tc.duration, tc.step, got, tc.want)
		}
	}
	if got := len(RTTSeries(miniTopo(t), 0, 1, 0.7, 0.1)); got != 8 {
		t.Errorf("RTTSeries over 0.7 s at 0.1 s has %d samples, want 8", got)
	}
}
