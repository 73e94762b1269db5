// Package purityfix is a hypatialint fixture for the purity check's
// contract rules. //hypatia:pure is a verified promise: an annotated
// function may not carry any impure effect (rule 1, reported at the
// declaration) and may make static module-local calls only to other
// annotated functions (rule 2, reported at the call site). Lines carrying
// a "want <check>" trailing comment must be flagged; unmarked lines must
// not be.
package purityfix

// counter stands in for any package-level accumulator; bump below assigns
// it, which makes it a mutable global.
var counter int

// add is effect-free and honestly annotated: clean.
//
//hypatia:pure
func add(a, b int) int { return a + b }

// bump is annotated but writes package-level state; rule 1 reports the
// broken contract at the declaration.
//
//hypatia:pure
func bump() int { // want purity
	counter++
	return counter
}

// helper is unannotated and effect-free; calling it from an annotated
// function still breaks the contract closure (rule 2).
func helper(x int) int { return x * 2 }

//hypatia:pure
func caller(x int) int {
	return helper(x) // want purity
}

// Op is a //hypatia:pure function type: dynamic calls through it are
// trusted, so apply stays clean.
//
//hypatia:pure
type Op func(int) int

//hypatia:pure
func apply(op Op, x int) int { return op(x) }

// applyRaw calls through a bare function value, which cannot be traced to
// a body or a contract; the unknown call breaks rule 1 at the declaration.
//
//hypatia:pure
func applyRaw(f func(int) int, x int) int { // want purity
	return f(x)
}

// smooth binds a function literal to a local variable exactly once; calls
// through it are calls to the literal, not dynamic calls, so the
// annotation holds.
//
//hypatia:pure
func smooth(xs []int) int {
	avg := func(a, b int) int { return (a + b) / 2 }
	t := 0
	for i := 1; i < len(xs); i++ {
		t += avg(xs[i-1], xs[i])
	}
	return t
}

// suppressed demonstrates that purity findings honor //lint:ignore like
// any other check: the rule-1 finding on the declaration line below is
// suppressed and the directive counts as used.
//
//hypatia:pure
//lint:ignore purity fixture demonstrates suppressing a purity finding
func suppressed() int {
	counter++
	return counter
}

// cleanButIgnored carries an ignore that matches nothing, so the directive
// itself is stale.
//
//hypatia:pure
func cleanButIgnored(a int) int {
	//lint:ignore purity stale by design // want staleignore
	return a
}

// The analysis honors //hypatia:pure only on functions and named function
// or interface types; anywhere else it is dead weight and reported.
//
//hypatia:pure // want directive
var sink int

// Unknown //hypatia: verbs are reported rather than silently ignored.
//
//hypatia:memoize add // want directive
func unused() {}
