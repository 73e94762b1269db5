//go:build !hypatia_checks

package core

import (
	"testing"

	"hypatia/internal/check/checktest"
)

// The benchmark budgets: each guard runs its Benchmark*'s own setup and holds
// the region the benchmark times to an allocation budget with headroom over
// what it measures, so only a lost reuse path or a new per-op allocation
// trips it. Budgets are a production-build contract (see checktest), so this
// file is left out of the hypatia_checks build rather than paying the K1
// setup only to skip.

// TestAllocGuardBenchForwardingStateIncremental holds
// BenchmarkForwardingStateIncremental to 100 allocs per 8 instants over the
// 5 ops after its 17 warm instants (it measures ~34: arenas still meeting a
// new high-water mark now and then, 107 of them in the first op).
func TestAllocGuardBenchForwardingStateIncremental(t *testing.T) {
	p := warmPipeline(t, 5)
	defer p.close()
	checktest.AllocBudget(t, "BenchmarkForwardingStateIncremental", 100, 5, func() { drainInstants(p) })
}

// TestAllocGuardBenchSimSerial holds one Execute of BenchmarkSimSerial's UDP
// shape to 100 allocs (it measures ~38: one event-slab page per 1 024
// records up to the in-flight high-water, since a packet rides inside its
// event's record, then the position cache and the heap growing while the
// links fill). A packet path that allocated once per packet would read 500 k.
func TestAllocGuardBenchSimSerial(t *testing.T) {
	run := newSimShape(t, 0, false)
	checktest.AllocBudget(t, "BenchmarkSimSerial", 100, 1, func() { run.Execute() })
}

// TestAllocGuardBenchSimSerialTCP holds one Execute of the TCP shape to
// 1 500 allocs (it measures ~940, nearly all the scoreboard rings growing,
// then the slab pages). A fresh closure per timer arm, a boxed payload per
// segment or per-ACK logs on by default would each read 10 k or more.
func TestAllocGuardBenchSimSerialTCP(t *testing.T) {
	run := newSimShape(t, 0, true)
	checktest.AllocBudget(t, "BenchmarkSimSerialTCP", 1500, 1, func() { run.Execute() })
}
