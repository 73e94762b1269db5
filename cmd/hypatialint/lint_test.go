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
	findings, err := lint(".", []string{"./testdata/src/..."})
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
		checkDroppedError, checkStaleIgnore, checkDirective,
	} {
		if !families[name] {
			t.Errorf("check family %q produced no findings on its fixtures", name)
		}
	}
}

// TestFindingsSortedByPosition pins the output ordering contract: findings
// are sorted by file, then line, then column, then check name.
func TestFindingsSortedByPosition(t *testing.T) {
	findings, err := lint(".", []string{"./testdata/src/..."})
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
	findings, err := lint(".", []string{"./testdata/src/droppederror"})
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	var suppressed, stale int
	for _, f := range findings {
		if f.Suppressed {
			if f.Check != checkDroppedError {
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
		t.Errorf("suppressed findings = %d, want exactly the fixture's suppressed cleanup call", suppressed)
	}
	if stale != 1 {
		t.Errorf("staleignore findings = %d, want exactly the planted stale directive", stale)
	}
}

// TestJSONOutput round-trips the -json schema: an array of objects with
// stable field names, including suppressed findings with their state.
func TestJSONOutput(t *testing.T) {
	findings, err := lint(".", []string{"./testdata/src/droppederror"})
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

// check has an error result for the calls below to drop.
func check() error { return nil }

// The call drops check's error and carries a //hypatia: comment, so
// droppederror and directive both report on its line; the directive names
// only droppederror, so the directive finding survives.
func twoChecksOneIgnore() {
	//lint:ignore droppederror exercises one-of-two suppression
	check() //hypatia:pure
}

// Both directives match the single droppederror finding between them: the
// finding is suppressed once and neither directive is stale.
func doubledDirective() {
	//lint:ignore droppederror covered from the line above
	check() //lint:ignore droppederror covered from the same line
}

// A trailing directive covers only the line it shares with code: the same
// check fires unsuppressed on the line below.
func trailingCoversOwnLineOnly() {
	check() //lint:ignore droppederror this line only
	check()
}
`
	if err := os.WriteFile(filepath.Join(scratch, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := lint(".", []string{"./" + scratch})
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
		{checkDroppedError, true}:  3,
		{checkDroppedError, false}: 1,
		{checkDirective, false}:    1,
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
// two independent runs over the fixture tree — every check family — must
// print byte-identical -json output.
func TestLintRunsByteIdentical(t *testing.T) {
	var out [2]bytes.Buffer
	for i := range out {
		findings, err := lint(".", []string{"./testdata/src/..."})
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
	byPath, err := lint(".", []string{"hypatia/cmd/hypatialint/testdata/src/droppederror"})
	if err != nil {
		t.Fatalf("import-path pattern: %v", err)
	}
	byDir, err := lint(".", []string{"./testdata/src/droppederror"})
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
		findings, err := lint(".", []string{pattern})
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

//lint:ignore droppederror
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

//hypatia:noalloc
func formerlyNoalloc() []int {
	return make([]int, 0, 4) //hypatia:allocs(amortized) no analyzer reads this either
}

// The purity contract went with its analyzer, so its verb is unknown too.
//
//hypatia:pure
func formerlyPure() {}
`
	if err := os.WriteFile(filepath.Join(scratch, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := lint(".", []string{"./" + scratch})
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if len(findings) != 11 {
		t.Fatalf("findings = %v, want 11 directive findings", findings)
	}
	var pure bool
	for _, f := range findings {
		if f.Check != checkDirective {
			t.Errorf("finding %v: want check %q", f, checkDirective)
		}
		pure = pure || strings.Contains(f.Msg, `"hypatia:pure"`)
	}
	if !pure {
		t.Errorf("no finding reports //hypatia:pure as an unknown directive: %v", findings)
	}
}
