package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// The check families. Each finding carries one of these names, and each can
// be suppressed per line with `//lint:ignore <check> <reason>`.
const (
	checkDroppedError = "droppederror" // discarded error results
	checkStaleIgnore  = "staleignore"  // //lint:ignore directives that no longer match any finding
	checkDirective    = "directive"    // malformed //lint: comments and any //hypatia: comment
)

// checkDocs is the one-line documentation per check, for -list.
var checkDocs = [][2]string{
	{checkDroppedError, "error results must be handled or explicitly discarded with _ ="},
	{checkStaleIgnore, "//lint:ignore directives must still match a finding; delete them when the code is fixed"},
	{checkDirective, "//lint:ignore directives must name a check and give a reason; no //hypatia: directive exists"},
}

// Finding is one reported lint violation. Suppressed findings (matched by a
// //lint:ignore directive) are retained so -json can show them, but they do
// not affect the exit status.
type Finding struct {
	Pos        token.Position
	Check      string
	Msg        string
	Suppressed bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
}

// directive is one parsed //lint:ignore comment. used flips when a finding
// matches it; directives still unused after every check has run are
// themselves findings (staleignore).
type directive struct {
	pos   token.Pos
	check string
	used  bool
}

// reporter accumulates findings and applies per-line suppressions.
type reporter struct {
	fset     *token.FileSet
	findings []Finding
	// byLine maps filename -> line -> directives covering that line (a
	// trailing ignore comment covers its own line, an own-line one the next).
	byLine     map[string]map[int][]*directive
	directives []*directive
}

func newReporter(fset *token.FileSet) *reporter {
	return &reporter{fset: fset, byLine: map[string]map[int][]*directive{}}
}

// add records a finding at pos; a matching //lint:ignore marks it suppressed
// (and the directive used) instead of dropping it.
func (r *reporter) add(pos token.Pos, check, msg string) {
	p := r.fset.Position(pos)
	suppressed := false
	for _, d := range r.byLine[p.Filename][p.Line] {
		if d.check == check || d.check == "*" {
			d.used = true
			suppressed = true
		}
	}
	r.findings = append(r.findings, Finding{Pos: p, Check: check, Msg: msg, Suppressed: suppressed})
}

// reportStale turns every directive that matched no finding into a
// staleignore finding. Call after all checks have run.
func (r *reporter) reportStale() {
	for _, d := range r.directives {
		if !d.used {
			r.add(d.pos, checkStaleIgnore,
				fmt.Sprintf("//lint:ignore %s matches no finding; the code is clean, delete the directive", d.check))
		}
	}
}

// sorted returns the findings in file/line/column order.
func (r *reporter) sorted() []Finding {
	sortFindings(r.findings)
	return r.findings
}

// sortFindings orders findings by file/line/column/check/message, stably.
// The check-name tiebreak keeps co-located findings from different families
// in a fixed order regardless of which family ran first, and the message
// tiebreak makes the order a pure function of the findings' content even
// when one check reports twice at the same position — two runs over the
// same tree print the same bytes.
func sortFindings(findings []Finding) {
	sort.SliceStable(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if findings[i].Check != findings[j].Check {
			return findings[i].Check < findings[j].Check
		}
		return findings[i].Msg < findings[j].Msg
	})
}

// collectSuppressions scans a file's comments for //lint:ignore directives
// and registers them with the reporter. A directive written on its own line
// suppresses the next line; a trailing directive suppresses its own line.
// Malformed directives (missing check name or reason) are themselves
// reported under the "directive" check.
func (r *reporter) collectSuppressions(file *ast.File) {
	var code map[int]bool // filled on the first well-formed directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:")
			if !ok {
				continue
			}
			pos := r.fset.Position(c.Pos())
			fields := strings.Fields(text)
			if len(fields) == 0 || fields[0] != "ignore" {
				r.findings = append(r.findings, Finding{Pos: pos, Check: checkDirective,
					Msg: fmt.Sprintf("unknown lint directive %q (only //lint:ignore <check> <reason> is supported)", "lint:"+text)})
				continue
			}
			if len(fields) < 3 {
				r.findings = append(r.findings, Finding{Pos: pos, Check: checkDirective,
					Msg: "malformed //lint:ignore: want //lint:ignore <check> <reason>"})
				continue
			}
			check := fields[1]
			if !knownCheck(check) {
				r.findings = append(r.findings, Finding{Pos: pos, Check: checkDirective,
					Msg: fmt.Sprintf("//lint:ignore names unknown check %q", check)})
				continue
			}
			d := &directive{pos: c.Pos(), check: check}
			r.directives = append(r.directives, d)
			lines := r.byLine[pos.Filename]
			if lines == nil {
				lines = map[int][]*directive{}
				r.byLine[pos.Filename] = lines
			}
			if code == nil {
				code = codeLines(r.fset, file)
			}
			line := pos.Line
			if !code[line] {
				line++ // alone on its line: covers the next
			}
			lines[line] = append(lines[line], d)
		}
	}
}

// codeLines returns the lines of file on which some syntax node starts or
// ends. A // comment runs to the end of its line, so one on such a line
// trails code and one on any other line stands alone.
func codeLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	tf := fset.File(file.Pos())
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case nil:
			return false
		case *ast.File:
			return true
		case *ast.CommentGroup, *ast.Comment:
			return false
		}
		lines[tf.Line(n.Pos())] = true
		lines[tf.Line(n.End()-1)] = true
		return true
	})
	return lines
}

func knownCheck(name string) bool {
	if name == "*" {
		return true
	}
	for _, d := range checkDocs {
		if d[0] == name {
			return true
		}
	}
	return false
}

// lintPackages runs every check family over the lint targets, then the
// stale-suppression sweep.
func lintPackages(targets []*pkg, rep *reporter) {
	for _, p := range targets {
		for _, f := range p.files {
			rep.collectSuppressions(f)
		}
		checkDroppedErrorPkg(p, rep)
		for _, f := range p.files {
			rep.checkHypatiaComments(f)
		}
	}
	rep.reportStale()
}

// checkHypatiaComments reports every //hypatia: comment in the file. No
// analyzer reads one any more (DESIGN.md, "Correctness tooling"), so each is
// an unknown directive: an annotation that claims a property no check holds
// it to cannot creep back as a silent comment.
func (r *reporter) checkHypatiaComments(file *ast.File) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//hypatia:")
			if !ok {
				continue
			}
			verb := rest
			if i := strings.IndexAny(verb, " ("); i >= 0 {
				verb = verb[:i]
			}
			r.add(c.Pos(), checkDirective,
				fmt.Sprintf("unknown //hypatia: directive %q (no //hypatia: directive exists)", "hypatia:"+verb))
		}
	}
}
