// Package checktest provides test-only helpers that enforce the simulator's
// allocation contract: AllocGuard pins a steady-state hot path's heap
// allocations per call on the running binary with testing.AllocsPerRun, so
// what it measures is what the compiler's escape analysis and the standard
// library actually do; AllocBudget does the same for a region measured
// once. The TestAllocGuard* tests built on them are the whole contract;
// there is no static half.
//
// This package is imported only from _test.go files: it imports the
// testing package, which must never be linked into the simulator binaries
// (internal/sim imports internal/check, so the guard cannot live in the
// check package itself).
package checktest

import (
	"runtime"
	"testing"

	"hypatia/internal/check"
)

// AllocGuard asserts that f performs at most budget heap allocations per
// call in steady state. warmup calls run first so amortized paths (arena
// growth, pool misses, capacity-guarded make) reach their steady state
// before measurement: growth that stops is amortized, and only what every
// call allocates counts.
//
// Under the hypatia_checks build the guard still exercises f once (so the
// checked build's assertions and oracles run), but skips budget
// enforcement: check.Assert boxes its variadic arguments and the
// cross-checking oracles re-derive state from scratch by design, so
// allocation budgets are a production-build contract.
func AllocGuard(t *testing.T, name string, budget float64, warmup int, f func()) {
	t.Helper()
	for i := 0; i < warmup; i++ {
		f()
	}
	if check.Enabled {
		f()
		t.Skipf("%s: allocation budgets are a production-build contract; the hypatia_checks build boxes assertion arguments and runs from-scratch oracles", name)
	}
	if got := testing.AllocsPerRun(100, f); got > budget {
		t.Errorf("%s: %.1f allocs/op in steady state, budget %.1f", name, got, budget)
	}
}

// AllocBudget asserts that ops consecutive calls of op, measured once with
// no warm-up call, average at most budget heap allocations per call: the
// allocs/op that go test -bench -benchtime <ops>x -benchmem reports for a
// benchmark whose setup leaves op ready to time. It is AllocGuard for a
// region that is not the same region twice — a whole Run.Execute, the
// instants right after a warm-up, whose arenas may still grow now and then —
// where testing.AllocsPerRun would spend the region's start on its warm-up
// call. Like AllocsPerRun it holds GOMAXPROCS at 1 while it measures, and it
// skips under hypatia_checks.
func AllocBudget(t *testing.T, name string, budget float64, ops int, op func()) {
	t.Helper()
	if check.Enabled {
		t.Skipf("%s: allocation budgets are a production-build contract", name)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range ops {
		op()
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs-before.Mallocs) / float64(ops); got > budget {
		t.Errorf("%s: %.1f allocs/op over %d ops, budget %.1f", name, got, ops, budget)
	}
}
