//go:build !hypatia_checks

package routing

// OracleComparisons reports how many trees have been oracle-verified;
// without -tags hypatia_checks the oracle is compiled out and the count is
// always 0.
func OracleComparisons() uint64 { return 0 }

// oracleSnapshot and oracleScratch are empty without -tags hypatia_checks.
type (
	oracleSnapshot struct{}
	oracleScratch  struct{}
)

// oracleAdvance and oracleCheck are no-ops without -tags hypatia_checks;
// their call sites are guarded by check.Enabled, so these stubs are never
// reached at runtime.
func (e *IncrementalEngine) oracleAdvance(float64) {}

func (e *IncrementalEngine) oracleCheck(*TreeScratch, int) {}
