//go:build !hypatia_checks

package routing

// OracleComparisons reports how many trees have been oracle-verified;
// without -tags hypatia_checks the oracle is compiled out and the count is
// always 0.
func OracleComparisons() uint64 { return 0 }

// oracleState is empty without -tags hypatia_checks.
type oracleState struct{}

// oracleCheck is a no-op without -tags hypatia_checks; its call site is
// guarded by check.Enabled, so this stub is never reached at runtime.
func (e *IncrementalEngine) oracleCheck(float64, int) {}
