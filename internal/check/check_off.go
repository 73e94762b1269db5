//go:build !hypatia_checks

package check

// Enabled reports whether runtime invariant checking is compiled in. It is
// a constant so that `if check.Enabled { ... }` blocks are eliminated
// entirely from unchecked builds.
const Enabled = false

// Assert is a no-op in unchecked builds. Call sites on hot paths must still
// guard with `if check.Enabled` so argument evaluation is also eliminated.
func Assert(cond bool, format string, args ...any) {}
