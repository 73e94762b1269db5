package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// Verdicts of a comparison row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// worsening is how much worse b's median is than a's, as a share of a's
// (negative when b is better).
func worsening(a, b stat) float64 {
	if a.Value == 0 { // failed_share: any rise from zero is fully worse
		if b.Value == 0 {
			return 0
		}
		return 1
	}
	d := (b.Value - a.Value) / a.Value
	if a.Better == higher {
		d = -d
	}
	return d
}

// everyRunBetter reports whether every sample of b reads better than every
// sample of a.
func everyRunBetter(a, b stat) bool {
	if a.Better == higher {
		return b.Min > a.Max
	}
	return b.Max < a.Min
}

// judge applies the benchmark's rule to one workload × metric: a spread
// wider than the bound on either side leaves the row unresolved unless every
// run of b beats every run of a; otherwise b may be worse by at most the
// bound.
func judge(a, b stat) string {
	if !a.Comparable || !b.Comparable {
		return verdictUnresolved
	}
	w := worsening(a, b)
	if a.Name == "setup_s" {
		// The samples are single constructions, whose spread is not the
		// spread of their median; judge the medians alone.
		if w > a.Bound {
			return verdictRegressed
		}
		return verdictOK
	}
	if (spread(a.Samples) > a.Bound || spread(b.Samples) > a.Bound) && a.Bound > 0 {
		if everyRunBetter(a, b) {
			return verdictOK
		}
		return verdictUnresolved
	}
	if w > a.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// compareReports tabulates, per workload × end-to-end metric, both values,
// the relative difference, the bound and the verdict, and checks that every
// simulated outcome is identical. ok is false when any row regressed, when a
// workload, metric or pass of one report is missing from the other, or when a
// digest or simulated count differs.
func compareReports(pathA, pathB string) (table string, ok bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return "", false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return "", false, err
	}
	out := &strings.Builder{}
	fmt.Fprintf(out, "a: %s  commit=%s nproc=%d GOMAXPROCS=%d seed=%d\n", pathA, a.Host.Commit, a.Host.NProc, a.Host.GOMAXPROCS, a.Host.Seed)
	fmt.Fprintf(out, "b: %s  commit=%s nproc=%d GOMAXPROCS=%d seed=%d\n", pathB, b.Host.Commit, b.Host.NProc, b.Host.GOMAXPROCS, b.Host.Seed)
	inA := map[string]bool{}
	byName := map[string]workloadReport{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	ok = true
	fmt.Fprintf(out, "%-18s %-18s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "value a", "value b", "worse by", "bound", "spread a", "spread b", "verdict")
	for _, wa := range a.Workloads {
		inA[wa.Name] = true
		wb, found := byName[wa.Name]
		if !found {
			ok = false
			fmt.Fprintf(out, "%-18s MISSING from b\n", wa.Name)
			continue
		}
		for _, d := range endToEnd {
			sa, okA := wa.EndToEnd[d.Name]
			sb, okB := wb.EndToEnd[d.Name]
			if !okA && !okB {
				continue // not applicable to this workload
			}
			if !okA || !okB {
				ok = false
				side := "a"
				if okA {
					side = "b"
				}
				fmt.Fprintf(out, "%-18s %-18s MISSING from %s\n", wa.Name, d.Name, side)
				continue
			}
			v := judge(sa, sb)
			if v == verdictRegressed {
				ok = false
			}
			fmt.Fprintf(out, "%-18s %-18s %14.6g %14.6g %+8.2f%% %6.1f%% %7.2f%% %7.2f%%  %s\n",
				wa.Name, d.Name, sa.Value, sb.Value, 100*worsening(sa, sb), 100*sa.Bound,
				100*spread(sa.Samples), 100*spread(sb.Samples), v)
		}
		if wa.Seed != wb.Seed && wa.DigestKey != wb.DigestKey {
			fmt.Fprintf(out, "%-18s simulated outcome: seeds differ (%d, %d), not comparable\n", wa.Name, wa.Seed, wb.Seed)
			continue
		}
		diffs := simulatedDiffs(wa, wb)
		for _, d := range diffs {
			ok = false
			fmt.Fprintf(out, "%-18s simulated outcome: DIFFERENT %s\n", wa.Name, d)
		}
		if len(diffs) == 0 {
			fmt.Fprintf(out, "%-18s simulated outcome: identical (digest %s, every simulated count)\n", wa.Name, wa.DigestKey)
		}
	}
	for _, wb := range b.Workloads {
		if !inA[wb.Name] {
			ok = false
			fmt.Fprintf(out, "%-18s MISSING from a\n", wb.Name)
		}
	}
	return out.String(), ok, nil
}

// simulatedDiffs lists what differs between the simulated outcomes of two
// reports of one workload on one seed: the digest, the event count, and every
// simulated count of the ledger. Unlike host time these repeat exactly, so
// any difference is a change of behaviour — for Simulator.Processed possibly
// a legitimate one, which the comparison still makes someone look at.
func simulatedDiffs(a, b workloadReport) []string {
	var diffs []string
	if a.DigestKey != b.DigestKey {
		diffs = append(diffs, fmt.Sprintf("digest: %s vs %s", a.DigestKey, b.DigestKey))
	}
	if a.EndToEnd != nil && b.EndToEnd != nil && a.Events != b.Events {
		diffs = append(diffs, fmt.Sprintf("simulator events: %d vs %d", a.Events, b.Events))
	}
	if (a.Traced == nil) != (b.Traced == nil) {
		return append(diffs, "traced pass: present in one report only")
	}
	if a.Traced == nil {
		return diffs
	}
	for _, d := range perLayer {
		va, okA := a.Traced.Ledger[d.Name]
		vb, okB := b.Traced.Ledger[d.Name]
		// Bit equality on purpose: a simulated count repeats exactly or it changed.
		if d.simulated && (okA != okB || math.Float64bits(va.Value) != math.Float64bits(vb.Value)) {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", d.Name, va.Value, vb.Value))
		}
	}
	return diffs
}
