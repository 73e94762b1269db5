//go:build !hypatia_checks

package analysis

import (
	"runtime"
	"testing"

	"hypatia/internal/check/checktest"
)

// TestAllocGuardBenchAnalyzePairsS1 runs BenchmarkAnalyzePairsS1's own setup
// and holds its region — 8 steps per op, over the 5 ops after 17 warm steps
// as -benchtime 5x reads it — to 75 allocs per op (it measures ~57: a pair's
// stored satellite sequence or a visibility list still meeting a new longest
// now and then). A sweep that materialised its 4 950 paths per step again
// would read hundreds of thousands. The budget is a production-build
// contract (see checktest), so this file is left out of the hypatia_checks
// build rather than paying the S1 setup only to skip. The sweep is built at
// GOMAXPROCS 2, so its split has a helper even where the guards run at
// GOMAXPROCS 1; AllocBudget measures at 1, where the helper is still woken
// and waited for at every step.
func TestAllocGuardBenchAnalyzePairsS1(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sw := warmSweep(t)
	checktest.AllocBudget(t, "BenchmarkAnalyzePairsS1", 75, 5, func() { advanceSteps(sw) })
}
