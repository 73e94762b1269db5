package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixtureCfg mirrors defaultConfig, rebased onto the fixture tree: the
// purity-root fixture lives under purity/core, not internal/core.
var fixtureCfg = config{
	pureScope: []string{"purity/core"},
}

// loadExpectations scans the fixture tree for `// want <check>...` comments
// and returns the expected findings keyed by "file:line".
func loadExpectations(t *testing.T, root string) map[string][]string {
	t.Helper()
	want := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, after, ok := strings.Cut(sc.Text(), "// want ")
			if !ok {
				continue
			}
			key := fmt.Sprintf("%s:%d", abs, line)
			want[key] = append(want[key], strings.Fields(after)...)
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("scanning fixtures: %v", err)
	}
	return want
}

// TestFixtures runs the analyzer over the fixture tree and requires the
// unsuppressed findings to match the `// want` annotations exactly: every
// annotated line must be flagged with the named check, and no unannotated
// line may be flagged. Suppressed findings are excluded — the suppression
// path is covered separately by TestSuppressionState. This covers at least
// one positive and one negative case per check family.
func TestFixtures(t *testing.T) {
	findings, err := lint(".", []string{"./testdata/src/..."}, fixtureCfg)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("no findings on fixtures; the fixture tree must exercise every check")
	}

	got := map[string][]string{}
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		got[key] = append(got[key], f.Check)
	}
	want := loadExpectations(t, "testdata/src")

	for key, checks := range want {
		sort.Strings(checks)
		g := append([]string(nil), got[key]...)
		sort.Strings(g)
		if strings.Join(checks, ",") != strings.Join(g, ",") {
			t.Errorf("%s: want findings %v, got %v", key, checks, g)
		}
	}
	for key, checks := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: unexpected findings %v", key, checks)
		}
	}

	// Every check family must appear at least once (positive coverage).
	families := map[string]bool{}
	for _, f := range findings {
		families[f.Check] = true
	}
	for _, name := range []string{
		checkDroppedError, checkStaleIgnore, checkPurity, checkAllocSafety, checkDirective,
	} {
		if !families[name] {
			t.Errorf("check family %q produced no findings on its fixtures", name)
		}
	}
}

// TestAllocFixtureFailsAlone pins the acceptance criterion that each
// seeded allocsafety violation — escaping literal, fresh append, escaping
// closure, fmt boxing, a make buried two calls deep, and an allocating
// implementer of a //hypatia:noalloc interface — fails the lint when the
// fixture runs by itself, with the full allocation-origin call chain
// present in both the text rendering and the -json output, while the
// amortized arena, annotated warm-up, pool-reuse, panic-path,
// waived-setup-call, and blessed-interface negatives stay clean.
func TestAllocFixtureFailsAlone(t *testing.T) {
	if code := run([]string{"./testdata/src/allocsafety"}); code != 1 {
		t.Fatalf("run on allocsafety fixture = %d, want 1", code)
	}
	findings, err := lint(".", []string{"./testdata/src/allocsafety"}, fixtureCfg)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	var alloc int
	var chained bool
	for _, f := range findings {
		if f.Check != checkAllocSafety {
			continue
		}
		alloc++
		if strings.Contains(f.Msg, "make allocates at fixture.go:") &&
			strings.Contains(f.Msg, "call chain: allocsafety.entry → allocsafety.helper → allocsafety.mid") {
			chained = true
		}
		for _, clean := range []string{"push", "warmup", "get", "put", "checked", "setup", "total", "constSource.Sample"} {
			if strings.Contains(f.Msg, "allocsafety."+clean+" ") {
				t.Errorf("negative case %s flagged: %v", clean, f)
			}
		}
	}
	if alloc != 6 {
		t.Errorf("allocsafety findings = %d, want the fixture's six seeded violations; findings:\n%v", alloc, findings)
	}
	if !chained {
		t.Errorf("no finding renders the full allocation-origin call chain; findings:\n%v", findings)
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, findings); err != nil {
		t.Fatalf("writeJSON: %v", err)
	}
	var decoded []jsonFinding
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("decode -json output: %v", err)
	}
	var jsonChained bool
	for _, d := range decoded {
		if d.Check == checkAllocSafety && strings.Contains(d.Message, "call chain: allocsafety.entry →") {
			jsonChained = true
		}
	}
	if !jsonChained {
		t.Error("-json output carries no allocsafety finding with its origin call chain")
	}
}

// TestFindingsSortedByPosition pins the output ordering contract: findings
// are sorted by file, then line, then column, then check name.
func TestFindingsSortedByPosition(t *testing.T) {
	findings, err := lint(".", []string{"./testdata/src/..."}, fixtureCfg)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if len(findings) < 2 {
		t.Fatalf("need at least two findings to check ordering, got %d", len(findings))
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		ka := fmt.Sprintf("%s\x00%08d\x00%08d\x00%s", a.Pos.Filename, a.Pos.Line, a.Pos.Column, a.Check)
		kb := fmt.Sprintf("%s\x00%08d\x00%08d\x00%s", b.Pos.Filename, b.Pos.Line, b.Pos.Column, b.Check)
		if ka > kb {
			t.Errorf("findings %d and %d out of (file, line, col, check) order:\n  %v\n  %v", i-1, i, a, b)
		}
	}
	// The ordering must also survive a shuffle through sortFindings itself
	// so the contract does not silently depend on discovery order.
	shuffled := append([]Finding(nil), findings...)
	for i := range shuffled {
		j := (i*7 + 3) % len(shuffled)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	sortFindings(shuffled)
	for i := range shuffled {
		if shuffled[i].String() != findings[i].String() {
			t.Fatalf("sortFindings not canonical at %d: %v vs %v", i, shuffled[i], findings[i])
		}
	}
}

// TestSuppressionState verifies that a matched //lint:ignore keeps the
// finding (marked suppressed, excluded from the exit status) and counts the
// directive as used, while an unmatched directive becomes a staleignore
// finding.
func TestSuppressionState(t *testing.T) {
	findings, err := lint(".", []string{"./testdata/src/purity"}, fixtureCfg)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	var suppressed, stale int
	for _, f := range findings {
		if f.Suppressed {
			if f.Check != checkPurity {
				t.Errorf("suppressed finding of unexpected family %q", f.Check)
			}
			suppressed++
		}
		if f.Check == checkStaleIgnore {
			stale++
			if f.Suppressed {
				t.Error("the stale-directive finding must not itself be suppressed")
			}
		}
	}
	if suppressed != 1 {
		t.Errorf("suppressed findings = %d, want exactly the fixture's suppressed global write", suppressed)
	}
	if stale != 1 {
		t.Errorf("staleignore findings = %d, want exactly the planted stale directive", stale)
	}
}

// TestJSONOutput round-trips the -json schema: an array of objects with
// stable field names, including suppressed findings with their state.
func TestJSONOutput(t *testing.T) {
	findings, err := lint(".", []string{"./testdata/src/purity"}, fixtureCfg)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, findings); err != nil {
		t.Fatalf("writeJSON: %v", err)
	}
	var decoded []jsonFinding
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not a JSON array of findings: %v\n%s", err, buf.String())
	}
	if len(decoded) != len(findings) {
		t.Fatalf("decoded %d findings, want %d", len(decoded), len(findings))
	}
	var sawSuppressed bool
	for i, d := range decoded {
		if d.Check == "" || d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("finding %d has empty fields: %+v", i, d)
		}
		sawSuppressed = sawSuppressed || d.Suppressed
	}
	if !sawSuppressed {
		t.Error("JSON output must include suppressed findings with suppressed=true")
	}
	// An empty run must still print a JSON array for jq round-tripping.
	buf.Reset()
	if err := writeJSON(&buf, nil); err != nil {
		t.Fatalf("writeJSON(nil): %v", err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty findings encode as %q, want []", got)
	}
}

// TestRunExitCodes pins the command-line contract: findings exit 1, clean
// runs exit 0, usage errors exit 2 — in both text and JSON modes.
func TestRunExitCodes(t *testing.T) {
	if code := run([]string{"./testdata/src/..."}); code != 1 {
		t.Errorf("run on fixtures = %d, want 1", code)
	}
	if code := run([]string{"-json", "./testdata/src/..."}); code != 1 {
		t.Errorf("run -json on fixtures = %d, want 1", code)
	}
	if code := run([]string{"-list"}); code != 0 {
		t.Errorf("run -list = %d, want 0", code)
	}
	if code := run([]string{"-badflag"}); code != 2 {
		t.Errorf("run with bad flag = %d, want 2", code)
	}
	if code := run([]string{"./does/not/exist"}); code != 2 {
		t.Errorf("run on missing dir = %d, want 2", code)
	}
}

// TestPurityCallChain pins the acceptance criterion that an injected
// global write deep inside the fixture copy of the table computation is
// caught at the worker's call site with the full call chain named.
func TestPurityCallChain(t *testing.T) {
	findings, err := lint(".", []string{"./testdata/src/purity/core"}, fixtureCfg)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	var chained bool
	for _, f := range findings {
		if f.Check != checkPurity {
			continue
		}
		if strings.Contains(f.Msg, "writes package-level variable sharedTotal") &&
			strings.Contains(f.Msg, "core.computeTable → core.fillColumn") {
			chained = true
		}
	}
	if !chained {
		t.Errorf("no purity finding names the injected write with its full call chain; findings:\n%v", findings)
	}
}

// TestSuppressionEdgeCases pins three corners of the directive machinery:
// a line producing findings from two checks with an ignore naming only one
// of them (only the named finding is suppressed, the directive is used),
// two directives — one above, one trailing — matching the same suppressed
// finding (both are used, neither is stale), and a trailing directive
// followed by a line with the same finding (the directive covers its own
// line only, so the second finding stands).
func TestSuppressionEdgeCases(t *testing.T) {
	scratch := filepath.Join("testdata", "scratch-suppress")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(scratch)
	src := `package scratch

var counter int

// helper is effect-free but unannotated, so every call to it from a
// //hypatia:pure function is a purity finding at the call.
func helper() int { return 1 }

// The declaration breaks both contracts — a global write and an escaping
// literal — so purity and allocsafety both report on its line; the
// directive names only allocsafety, so the purity finding survives.
//
//hypatia:pure
//hypatia:noalloc
//lint:ignore allocsafety exercises one-of-two suppression
func twoChecksOneIgnore() []int {
	counter++
	return []int{counter}
}

// Both directives match the single purity finding between them: the
// finding is suppressed once and neither directive is stale.
//
//hypatia:pure
func doubledDirective() int {
	//lint:ignore purity covered from the line above
	return helper() //lint:ignore purity covered from the same line
}

// A trailing directive covers only the line it shares with code: the same
// check fires unsuppressed on the line below.
//
//hypatia:pure
func trailingCoversOwnLineOnly() int {
	a := helper() //lint:ignore purity this line only
	b := helper()
	return a + b
}
`
	if err := os.WriteFile(filepath.Join(scratch, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := lint(".", []string{"./" + scratch}, fixtureCfg)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	type key struct {
		check      string
		suppressed bool
	}
	counts := map[key]int{}
	for _, f := range findings {
		counts[key{f.Check, f.Suppressed}]++
	}
	want := map[key]int{
		{checkAllocSafety, true}: 1,
		{checkPurity, true}:      2,
		{checkPurity, false}:     2,
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("findings with check=%s suppressed=%v: got %d, want %d", k.check, k.suppressed, counts[k], n)
		}
	}
	for k := range counts {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected findings: check=%s suppressed=%v ×%d", k.check, k.suppressed, counts[k])
		}
	}
}

// TestLintRunsByteIdentical pins the determinism the analyzer is held to:
// two independent runs over the fixture tree — every check family, every
// origin chain and escape path — must print byte-identical -json output.
func TestLintRunsByteIdentical(t *testing.T) {
	var out [2]bytes.Buffer
	for i := range out {
		findings, err := lint(".", []string{"./testdata/src/..."}, fixtureCfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if err := writeJSON(&out[i], findings); err != nil {
			t.Fatalf("run %d: writeJSON: %v", i, err)
		}
	}
	if out[0].Len() == 0 || !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Errorf("two runs over the fixture tree differ:\n%s\nvs\n%s", out[0].Bytes(), out[1].Bytes())
	}
}

// TestImportPathPatterns pins how a pattern is told from a directory: only
// the module path itself, or a path under it, is an import path (rebased
// onto the module root wherever the tool runs); a directory whose name
// merely starts with the module name is a directory.
func TestImportPathPatterns(t *testing.T) {
	byPath, err := lint(".", []string{"hypatia/cmd/hypatialint/testdata/src/purity"}, fixtureCfg)
	if err != nil {
		t.Fatalf("import-path pattern: %v", err)
	}
	byDir, err := lint(".", []string{"./testdata/src/purity"}, fixtureCfg)
	if err != nil {
		t.Fatalf("directory pattern: %v", err)
	}
	if len(byPath) == 0 || fmt.Sprint(byPath) != fmt.Sprint(byDir) {
		t.Errorf("import-path pattern found %v, directory pattern %v", byPath, byDir)
	}

	// The sibling lives under testdata so the go tool never sees it.
	if err := os.Chdir("testdata"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(".."); err != nil {
			t.Fatal(err)
		}
	}()
	const sibling = "hypatia-tools"
	if err := os.MkdirAll(sibling, 0o755); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(sibling)
	src := `package tools

func mightFail() error { return nil }

func drop() { mightFail() }
`
	if err := os.WriteFile(filepath.Join(sibling, "tools.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{sibling, sibling + "/..."} {
		findings, err := lint(".", []string{pattern}, fixtureCfg)
		if err != nil {
			t.Errorf("pattern %q: %v", pattern, err)
			continue
		}
		if len(findings) != 1 || findings[0].Check != checkDroppedError || filepath.Base(filepath.Dir(findings[0].Pos.Filename)) != sibling {
			t.Errorf("pattern %q: got %v, want the one %s finding in %s", pattern, findings, checkDroppedError, sibling)
		}
	}
}

// TestMalformedDirective verifies that broken //lint: comments and unknown
// //hypatia: verbs are themselves findings rather than silent no-ops.
func TestMalformedDirective(t *testing.T) {
	// The loader resolves packages relative to the enclosing module, so the
	// scratch fixture must live inside the repo tree rather than t.TempDir.
	scratch := filepath.Join("testdata", "scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(scratch)
	src := `package scratch

//lint:ignore purity
func missingReason() {}

//lint:ignore notacheck because reasons
func unknownCheck() {}

//lint:frobnicate x y
func unknownDirective() {}

// No analyzer reads these verbs, so they must not pass as silent comments.
//
//hypatia:confined
type formerlyConfined struct{}

//hypatia:transfer
func formerlyTransfer() {}

type formerlyHandled struct {
	devs []int32 //hypatia:handle(node)
	head int32   //hypatia:epoch(ring-slot)
}

//hypatia:exhaustive
type formerlyExhaustive uint8
`
	if err := os.WriteFile(filepath.Join(scratch, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := lint(".", []string{"./" + scratch}, fixtureCfg)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if len(findings) != 8 {
		t.Fatalf("findings = %v, want 8 directive findings", findings)
	}
	for _, f := range findings {
		if f.Check != checkDirective {
			t.Errorf("finding %v: want check %q", f, checkDirective)
		}
	}
}
