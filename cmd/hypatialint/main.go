// Command hypatialint is the project-specific static-analysis suite for the
// Hypatia codebase. It enforces, as machine-checked rules, invariants a
// compiler cannot see and a reviewer eventually misses:
//
//	droppederror    error results must be handled or discarded with _ =
//	staleignore     a //lint:ignore directive that no longer matches any
//	                finding is itself reported, so suppressions cannot
//	                outlive the code they excused
//	directive       a //lint: comment that is malformed or names an unknown
//	                check, and any //hypatia: comment: no annotation is read,
//	                so none may sit in the tree claiming a property
//
// The other properties the tree relies on are gated at run time, not here
// (DESIGN.md, "Correctness tooling", records each static family deleted in
// favour of a runtime gate): goroutine ownership, and forwarding state that
// depends only on its instant, by go test -race -tags hypatia_checks over the
// split producer, the sharded loop and their differentials; determinism by
// the replay tests and golden digests; allocation on the hot paths by the
// TestAllocGuard* tests, the benchmark budgets among them.
//
// One run is one serial pass: the lint targets and their module-local
// imports are parsed and type-checked from source, every check family runs
// over the targets, and the findings come out sorted — the same lint() the
// test suite calls.
//
// Usage:
//
//	go run ./cmd/hypatialint ./...
//	go run ./cmd/hypatialint -list
//	go run ./cmd/hypatialint -json ./... | jq .
//
// A finding can be suppressed for one line with a directive comment trailing
// that line, or alone on the line above, naming the check and giving a
// reason:
//
//	//lint:ignore droppederror best-effort cleanup on shutdown
//
// With -json the tool prints every finding — suppressed ones included, with
// their suppression state — as a JSON array of objects with fields check,
// file, line, col, message, suppressed. The exit status in both modes
// reflects unsuppressed findings only.
//
// The tool is built only on go/parser, go/ast, and go/types: module-local
// imports resolve against the module tree, the standard library through the
// GOROOT source importer. Exit status: 0 clean, 1 findings, 2 usage or load
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("hypatialint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	jsonOut := fs.Bool("json", false, "print findings as a JSON array (includes suppressed findings with their state)")
	list := fs.Bool("list", false, "list the checks and exit")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: hypatialint [flags] [packages]")
		fmt.Fprintln(os.Stderr, "packages are directories or ./... patterns; default ./...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, d := range checkDocs {
			fmt.Printf("%-16s %s\n", d[0], d[1])
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := lint(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hypatialint:", err)
		return 2
	}
	unsuppressed := 0
	for _, f := range findings {
		if !f.Suppressed {
			unsuppressed++
		}
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "hypatialint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			if !f.Suppressed {
				fmt.Println(f)
			}
		}
	}
	if unsuppressed > 0 {
		fmt.Fprintf(os.Stderr, "hypatialint: %d finding(s)\n", unsuppressed)
		return 1
	}
	return 0
}

// jsonFinding is the stable -json schema for one finding.
type jsonFinding struct {
	Check      string `json:"check"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func writeJSON(w io.Writer, findings []Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			Check:      f.Check,
			File:       f.Pos.Filename,
			Line:       f.Pos.Line,
			Col:        f.Pos.Column,
			Message:    f.Msg,
			Suppressed: f.Suppressed,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// lint loads every package matched by patterns (resolved relative to dir)
// and runs every check family over them, returning the sorted findings
// (suppressed ones included).
func lint(dir string, patterns []string) ([]Finding, error) {
	l, err := newLoader(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(l, patterns)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("no packages match %v", patterns)
	}
	var targets []*pkg
	for _, d := range dirs {
		path, err := l.importPath(d)
		if err != nil {
			return nil, err
		}
		p, err := l.load(path)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
		targets = append(targets, p)
	}
	rep := newReporter(l.fset)
	lintPackages(targets, rep)
	return rep.sorted(), nil
}
