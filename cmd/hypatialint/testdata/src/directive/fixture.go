// Package directive is a hypatialint fixture for the directive check: a
// //lint: comment that is malformed or names an unknown check is a finding,
// and so is every //hypatia: comment, since no analyzer reads one.
//
// Every line with a "want <check>" trailing comment must be flagged;
// unmarked lines must not be.
package directive

// formerlyPure carries the annotation the purity contract used to check.
//
//hypatia:pure // want directive
func formerlyPure() int { return 1 }

//lint:frobnicate x y // want directive
func unknownVerb() {}

//lint:ignore nosuchcheck because reasons // want directive
func unknownCheck() {}

// clean carries ordinary comments only, which nothing reports.
func clean() int { return formerlyPure() }
