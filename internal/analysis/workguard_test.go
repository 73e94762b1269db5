//go:build !hypatia_checks

package analysis

import (
	"testing"

	"hypatia/internal/constellation"
)

// TestWorkGuardAnalysisSweep holds the stepped analysis to work budgets on a
// reduced analysis_s1_pairs sweep: Starlink S1, the paper's 100 cities, all
// 4 950 pairs, 20 s at 100 ms steps (201 steps, t = 0 included). Counts
// depend only on the code and its input, so unlike wall time they read the
// same on any host and at any worker count (routing.Split.Work):
//
//   - graph builds: exactly one per step. The split builds each step's graph
//     while the step before it solves its trees; a prefetch the next step
//     does not adopt costs a second build.
//   - second-pass nodes per tree: how tight the carried settle orders stay
//     (graph.RepairSSSPDense's refresh rule). The rule reads 4.5 here;
//     without its insertion re-sort the count climbs with the chain.
//   - entries set to -1: 0, since the sweep reads its trees and draws no
//     table.
//
// The file is left out of the hypatia_checks build, whose oracle re-derives
// every tree from scratch and would only make the chain slow.
func TestWorkGuardAnalysisSweep(t *testing.T) {
	const secondPassBudget = 8.0 // per tree
	sw, err := newSweep(paperTopo(t, constellation.Starlink()), Config{Duration: 20, Step: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.split.Close()
	steps := sw.steps
	sw.visit = func(int, int, int, float64, int, bool) {}
	sw.step = 0
	sw.advance()
	first := sw.split.Work()
	for sw.step = 1; sw.step < steps; sw.step++ {
		sw.advance()
	}
	w := sw.split.Work()
	if w.Builds != steps {
		t.Errorf("%d graph builds over %d steps, want exactly one per step", w.Builds, steps)
	}
	// The first step's trees are from-scratch Dijkstras with no second
	// pass; the budget is on the repairs after it.
	trees := w.Trees - first.Trees
	perTree := float64(w.SecondPass-first.SecondPass) / float64(trees)
	if perTree > secondPassBudget {
		t.Errorf("%.2f second-pass nodes per tree over %d repaired trees, budget %.0f: the carried settle orders have decayed",
			perTree, trees, secondPassBudget)
	}
	if w.Blanked != 0 {
		t.Errorf("%d entries set to -1 over %d steps, want 0: the sweep draws no table", w.Blanked, steps)
	}
	t.Logf("per step: %.2f builds, %.0f entries set to -1; %.3f second-pass nodes per repaired tree",
		float64(w.Builds)/float64(steps), float64(w.Blanked)/float64(steps), perTree)
}
