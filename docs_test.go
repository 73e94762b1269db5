package hypatia

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	fencedBlock = regexp.MustCompile("(?ms)^```.*?^```")
	inlineCode  = regexp.MustCompile("`([^`\n]+)`")
	testName    = regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)[A-Za-z0-9_]+\*?$`)
	testDecl    = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]+)\(`)
)

// TestDocsCiteOnlyWhatExists holds README.md and DESIGN.md to the tree they
// describe: every test, fuzz target or benchmark they name in backticks is
// declared in some _test.go file (a trailing * names a prefix), every *.go
// file they name exists, and every path they give under a top-level
// directory of the repository exists. A rename or a deletion that leaves a
// citation behind fails here instead of sending a reader after code that is
// gone.
func TestDocsCiteOnlyWhatExists(t *testing.T) {
	var declared []string
	var files []string // slash-separated, relative to the repository root
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		files = append(files, filepath.ToSlash(path))
		if strings.HasSuffix(name, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testDecl.FindAllStringSubmatch(string(src), -1) {
				declared = append(declared, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	topLevel := map[string]bool{}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			topLevel[e.Name()] = true
		}
	}

	isDeclared := func(cite string) bool {
		prefix, isPrefix := strings.CutSuffix(cite, "*")
		for _, d := range declared {
			if d == cite || (isPrefix && strings.HasPrefix(d, prefix)) {
				return true
			}
		}
		return false
	}
	// A .go citation with no top-level directory in front is relative to
	// some package: it exists if a file's path ends in it.
	goFileExists := func(cite string) bool {
		for _, f := range files {
			if f == cite || strings.HasSuffix(f, "/"+cite) {
				return true
			}
		}
		return false
	}

	for _, doc := range []string{"README.md", "DESIGN.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fencedBlock.ReplaceAllString(string(src), "")
		for _, m := range inlineCode.FindAllStringSubmatch(text, -1) {
			cite := strings.TrimPrefix(m[1], "./")
			first, _, _ := strings.Cut(cite, "/")
			switch {
			case testName.MatchString(cite):
				if !isDeclared(cite) {
					t.Errorf("%s cites `%s`, which no _test.go file declares", doc, m[1])
				}
			case strings.ContainsAny(cite, " {}*?[]<>(),:|="):
				// A command line, a pattern or an expression, not one path.
			case strings.Contains(cite, "/") && topLevel[first]:
				if _, err := os.Stat(cite); err != nil {
					t.Errorf("%s cites `%s`, which does not exist", doc, m[1])
				}
			case strings.HasSuffix(cite, ".go"):
				if !goFileExists(cite) {
					t.Errorf("%s cites `%s`, which no file in the repository is", doc, m[1])
				}
			}
		}
	}
}
