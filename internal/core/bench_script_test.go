package core

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBenchScriptJSONSchema smoke-tests the JSON rendering in
// scripts/bench.sh without running any benchmarks: --selftest feeds a
// canned bench log through the same awk program that builds
// BENCH_routing.json and asserts the schema — per-benchmark entries, with
// ns_per_instant on the ForwardingState* rows, plus the
// serial_over_incremental and sharded_over_serial ratios — comes out right.
// Schema regressions then fail the test suite instead of the next bench run.
func TestBenchScriptJSONSchema(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("bash not available")
	}
	cmd := exec.Command("bash", "scripts/bench.sh", "--selftest")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("bench.sh --selftest failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "bench.sh --selftest: ok") {
		t.Fatalf("bench.sh --selftest did not report ok:\n%s", out)
	}
}
