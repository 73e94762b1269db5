package main

// The allocsafety check turns //hypatia:noalloc into a verified contract.
// Unlike purity's annotation-closure rule, the contract is transitive
// through summaries, not annotations: an annotated function may call
// unannotated helpers freely, because the helpers' allocation classes are
// computed bottom-up and any steady-state allocation anywhere beneath the
// annotated entry point surfaces here with its full origin call chain.
// (Amortized growth — appending into caller-owned arenas, capacity-guarded
// make, sync.Pool misses — is allowed: that is exactly the contract the
// snapshot and forwarding-table arenas are built on.)
//
// Misplaced //hypatia:noalloc and //hypatia:allocs comments are reported
// under the directive check via checkDirectiveComments, like the other
// hypatia directives.

import (
	"fmt"
	"go/types"
)

// checkAllocSafetyPkgs verifies every annotated function declared in the
// lint targets against its computed allocation summary, then holds the
// module-local implementers of //hypatia:noalloc interfaces to the same
// bar: calls through such an interface are trusted by the analysis, so an
// implementation that allocates would silently break every annotated
// caller. Implementers need no annotation of their own — the contract is
// summary-transitive — their computed class just must not be Allocates.
func checkAllocSafetyPkgs(targets []*pkg, ax *allocAnalysis, rep *reporter) {
	allocating := func(_, itn *types.TypeName, _, impl *types.Func) string {
		sum := ax.summaries[impl]
		if sum == nil {
			return ""
		}
		o, allocates := ax.witness(sum)
		if !allocates {
			return ""
		}
		name := ax.cg.nodeName(impl)
		return fmt.Sprintf("%s satisfies //hypatia:noalloc interface %s.%s, but %s", name, itn.Pkg().Name(), itn.Name(), o.describe(name))
	}
	for _, p := range targets {
		ax.checkAnnotated(p, rep, nil)
		ax.checkImplementers(p, rep, allocating)
	}
}
