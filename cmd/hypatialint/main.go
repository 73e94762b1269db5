// Command hypatialint is the project-specific static-analysis suite for the
// Hypatia codebase. It enforces, as machine-checked rules, invariants a
// compiler cannot see and a reviewer eventually misses:
//
//	droppederror    error results must be handled or discarded with _ =
//	staleignore     a //lint:ignore directive that no longer matches any
//	                finding is itself reported, so suppressions cannot
//	                outlive the code they excused
//
// An interprocedural effect analysis — a bottom-up fixpoint over the
// strongly-connected components of the module-local call graph — backs the
// contract family:
//
//	purity          //hypatia:pure is a checked contract: an annotated
//	                function must be free of global writes, wall-clock and
//	                rand reads, I/O, and map-order leaks, and may call only
//	                annotated functions; on a named function type or an
//	                interface the annotation blesses calls through it and
//	                obligates module-local implementers; goroutine bodies in
//	                the pipeline packages (defaultConfig.pureScope) are held
//	                to the worker contract (channels and arena writes allowed)
//	directive       //lint: and //hypatia: comments that are malformed,
//	                name an unknown directive, or sit where they take no
//	                effect
//
// There is no flow-sensitive tier: integer-handle domains, angle and length
// units and forwarding-table lifecycles are gated by the test suite, and
// "state owned by one goroutine at a time" by go test -race -tags
// hypatia_checks over the sharded and pipeline differentials; wall-clock and
// global-rand reads, sim.Time rounding, by-value lock copies and event kinds
// without a dispatch arm by the replay tests, golden digests, go vet and
// dispatch's own panic; steady-state allocation on the hot paths by the
// AllocGuard tests and scripts/bench.sh's alloc_budgets (DESIGN.md's four
// "Removed, and why" sections record the mutation trials behind each call).
//
// One run is one serial pass: the lint targets and their module-local
// imports are parsed and type-checked from source, every check family runs
// over them, and the findings come out sorted — the same lint() the test
// suite calls. The purity root scope is the fixed defaultConfig below, not a
// flag.
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
//	//lint:ignore purity hypatia_checks oracle counts comparisons globally
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
	"sort"
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

	findings, err := lint(".", patterns, defaultConfig)
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
// (suppressed ones included). The call graph and the interprocedural
// summaries cover every loaded module-local package — targets plus
// dependencies — so interprocedural facts do not stop at the lint-target
// boundary.
func lint(dir string, patterns []string, cfg config) ([]Finding, error) {
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
	var all []*pkg
	for _, p := range l.cache {
		all = append(all, p)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].path < all[j].path })
	rep := newReporter(l.fset)
	cfg.module = l.module
	lintPackages(targets, all, buildCallGraph(all), cfg, rep)
	return rep.sorted(), nil
}
