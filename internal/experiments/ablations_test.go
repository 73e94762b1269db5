package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestAblationMultipath locks the table EXPERIMENTS.md's "Multi-path
// diversity" bullet quotes: cmd/hypatia's ablation at -scale quick, the 4
// shortest paths of 20 permutation pairs per constellation at t = 0. Each
// stretch must round to the printed value (±0.0006 of it), and the disjoint
// share may move by at most one pair; anything more changed the finding.
func TestAblationMultipath(t *testing.T) {
	stats, rep, err := AblationMultipath(4, QuickScale().Pairs, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name     string
		pairs    int
		stretch  []float64
		disjoint float64
	}{
		{"Starlink", 20, []float64{1, 1.004, 1.010, 1.014}, 0.15},
		{"Kuiper", 20, []float64{1, 1.006, 1.012, 1.021}, 0.35},
		{"Telesat", 20, []float64{1, 1.011, 1.039, 1.043}, 0.60},
	}
	if len(stats) != len(want) {
		t.Fatalf("constellations = %d, want %d", len(stats), len(want))
	}
	for i, w := range want {
		st := stats[i]
		if st.Name != w.name || st.Pairs != w.pairs {
			t.Errorf("row %d: %s with %d connected pairs, want %s with %d", i, st.Name, st.Pairs, w.name, w.pairs)
			continue
		}
		if len(st.KthStretch) != len(w.stretch) || st.KthStretch[0] != 1 {
			t.Errorf("%s: stretches %v, want %v with the first exactly 1", st.Name, st.KthStretch, w.stretch)
			continue
		}
		for k := range w.stretch {
			if math.Abs(st.KthStretch[k]-w.stretch[k]) > 0.0006 {
				t.Errorf("%s: path %d stretch %.4f, want %.3f", st.Name, k+1, st.KthStretch[k], w.stretch[k])
			}
		}
		if math.Abs(st.DisjointFraction-w.disjoint) > 1.0/float64(w.pairs)+1e-9 {
			t.Errorf("%s: 2nd path disjoint for %.0f%% of pairs, want %.0f%% ± one pair", st.Name, 100*st.DisjointFraction, 100*w.disjoint)
		}
	}
	if !strings.Contains(rep.String(), "stretch") {
		t.Error("report missing stretch column")
	}
}

func TestAblationGSLPolicy(t *testing.T) {
	stats, rep, err := AblationGSLPolicy(6, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("policies = %d", len(stats))
	}
	free, nearest := stats[0], stats[1]
	if free.Policy != "free" || nearest.Policy != "nearest-only" {
		t.Fatalf("order: %+v", stats)
	}
	// Restricting attachment can only make paths equal or worse.
	if nearest.MedianRTT+1e-9 < free.MedianRTT {
		t.Errorf("nearest-only median RTT %v below free %v", nearest.MedianRTT, free.MedianRTT)
	}
	if nearest.Disconnected < free.Disconnected {
		t.Errorf("nearest-only disconnected %d below free %d", nearest.Disconnected, free.Disconnected)
	}
	if !strings.Contains(rep.String(), "nearest-only") {
		t.Error("report missing policy rows")
	}
}

func TestCoverageReport(t *testing.T) {
	rep, err := CoverageReport(300)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"Starlink", "Kuiper", "Telesat", "Saint Petersburg", "Singapore"} {
		if !strings.Contains(out, want) {
			t.Errorf("coverage report missing %q", want)
		}
	}
}

func TestGravityPairs(t *testing.T) {
	gss := PaperCities()
	pairs := GravityPairs(gss, 50, Seed)
	if len(pairs) != 50 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	seen := map[[2]int]bool{}
	counts := map[int]int{}
	for _, p := range pairs {
		if p[0] == p[1] {
			t.Fatal("self pair")
		}
		if seen[p] {
			t.Fatal("duplicate ordered pair")
		}
		seen[p] = true
		counts[p[0]]++
		counts[p[1]]++
	}
	// Deterministic.
	again := GravityPairs(gss, 50, Seed)
	for i := range pairs {
		if pairs[i] != again[i] {
			t.Fatal("not deterministic")
		}
	}
	// Population bias: the top-10 cities should appear far more often than
	// the bottom-10 across a larger sample.
	big := GravityPairs(gss, 500, Seed)
	top, bottom := 0, 0
	for _, p := range big {
		for _, e := range p {
			if e < 10 {
				top++
			}
			if e >= 90 {
				bottom++
			}
		}
	}
	if top <= bottom {
		t.Errorf("gravity model not biased: top-10 %d vs bottom-10 %d", top, bottom)
	}
}
