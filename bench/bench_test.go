package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"hypatia/internal/check"
)

// smokeScale runs every workload at ~1/50 of its horizon. The invariant-
// checking build re-derives every forwarding column from scratch (and runs
// under the race detector in check.sh), so it gets a shorter horizon still.
func smokeScale() float64 {
	if check.Enabled {
		return 1.0 / 200
	}
	return 1.0 / 50
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesProgram pins BENCHMARK.json to the tables the program
// prints from, and to the limits of the driver's contract.
func TestManifestMatchesProgram(t *testing.T) {
	got := readManifest(t)
	if want := benchmarkManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -manifest`:\n got %+v\nwant %+v", got, want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range got.Workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range got.EndToEnd {
		checkName(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	seen = map[string]bool{} // per-layer names are their own list (pkt_hops_per_s is an ungated view there)
	for _, m := range append(got.EndToEnd, got.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range got.PerLayer {
		checkName(m.Name)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", got.RunSeconds)
	}
	for _, r := range dropReasons {
		perLayerDef(dropMetric(r)) // panics when a drop reason has no ledger line
	}
}

// smokeExecutor measures in this process instead of one child per
// measurement, and takes three set-up samples instead of forty-one.
func smokeExecutor(mode string, w workload, seed int64) (measurement, error) {
	if mode == "setup" {
		s, err := setupSamples(w, 3, setupBatchSeconds)
		return measurement{Setup: s}, err
	}
	return measureInProcess(mode, w, seed)
}

// TestSmoke runs all four workloads at ~1/50 scale through the same code the
// command uses and checks the output schema, that two repetitions give the
// same digest, and that the traced driver reproduces the production digest.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	var rep report
	for i, full := range workloads {
		if m.Workloads[i].Name != full.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, program says %q", i, m.Workloads[i].Name, full.Name)
		}
		w := full.scaled(smokeScale())
		t.Run(w.Name, func(t *testing.T) {
			wr := measureWorkload(smokeExecutor, w, plan{seed: heldOutSeed, reps: 2, endToEnd: true, traced: true})
			if wr.Failed != 0 {
				t.Fatalf("%d of %d measurements failed: %v", wr.Failed, wr.Attempted, wr.Failures)
			}
			if wr.Attempted != 4 {
				t.Errorf("attempted %d measurements, want 2 repetitions + 2 in the traced pass", wr.Attempted)
			}
			if !wr.TracedDigestOK {
				t.Error("traced driver's digest differs from the production run's")
			}
			if wr.Golden != "none" {
				t.Errorf("scaled workload was checked against a recorded digest (%s)", wr.Golden)
			}

			for pass, defs := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
				line, err := json.Marshal(wr.contractLine(pass))
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   *bool `json:"correct"`
					Attempted *int  `json:"attempted"`
					Failed    *int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(bytes.NewReader(line))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&got); err != nil {
					t.Fatalf("trace %d: result line %s: %v", pass, line, err)
				}
				if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
					t.Errorf("trace %d: result line %s", pass, line)
				}
				if len(got.Metrics) != len(defs) {
					t.Errorf("trace %d: %d metrics in the result line, BENCHMARK.json lists %d", pass, len(got.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := got.Metrics[d.Name]
					switch {
					case !ok || v.Value == nil:
						t.Errorf("trace %d: metric %s missing from the result line", pass, d.Name)
					case v.Unit != d.Unit:
						t.Errorf("trace %d: metric %s has unit %q, BENCHMARK.json says %q", pass, d.Name, v.Unit, d.Unit)
					case pass == 0 && *v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, *v.Value)
					}
				}
			}

			printed := formatWorkload(hostFingerprint(heldOutSeed), wr)
			for _, d := range endToEnd {
				if !strings.Contains(printed, d.Name) {
					t.Errorf("printed report does not name %s", d.Name)
				}
			}

			// The spans are one tree of one run, each inside its parent.
			if len(wr.Spans) == 0 || wr.Spans[0].Parent != -1 {
				t.Fatalf("%d spans, the first with parent %d; want a root", len(wr.Spans), wr.Spans[0].Parent)
			}
			for i, s := range wr.Spans[1:] {
				if s.Parent < 0 || s.Parent > i || s.Run != wr.Spans[0].Run {
					t.Fatalf("span %d (%s): parent %d, run %d", i+1, s.Name, s.Parent, s.Run)
				}
				if p := wr.Spans[s.Parent]; s.Start < p.Start || s.End > p.End || s.End < s.Start {
					t.Errorf("span %d (%s) [%d, %d] is not inside its parent %s [%d, %d]", i+1, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
				}
			}
			rep.Workloads = append(rep.Workloads, wr)
		})
	}

	// -out writes the report, and the spans beside it; a report compares
	// equal to itself.
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeReport(path, rep); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(spansPath(path))
	if err != nil {
		t.Fatal(err)
	}
	var spans map[string][]span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	for _, wr := range rep.Workloads {
		if len(spans[wr.Name]) != len(wr.Spans) {
			t.Errorf("%s: %d spans written, %d recorded", wr.Name, len(spans[wr.Name]), len(wr.Spans))
		}
	}
	if table, ok, err := compareReports(path, path); err != nil || !ok {
		t.Errorf("a report against itself: ok=%v err=%v\n%s", ok, err, table)
	}
}

// TestCompareMissingOrDifferent checks that -compare fails when one report
// lacks a workload, a metric or the traced pass of the other, or when a
// simulated count differs, and not only on a regression.
func TestCompareMissingOrDifferent(t *testing.T) {
	mk := func() report {
		wr := func(name string) workloadReport {
			return workloadReport{
				Name: name, Seed: 1, DigestKey: "d", Events: 100,
				EndToEnd: map[string]stat{
					"slowdown": newStat("slowdown", []float64{1, 1, 1}, true),
					"setup_s":  newStat("setup_s", []float64{1, 1, 1}, true),
				},
				Traced: &tracedPass{Ledger: ledger{"sim.events": {Value: 100}, "sim.ns_per_event": {Value: 250}}},
			}
		}
		return report{Workloads: []workloadReport{wr("udp_perm100"), wr("tcp_perm100")}}
	}
	dir := t.TempDir()
	write := func(name string, r report) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk())
	cases := []struct {
		name   string
		change func(*report)
		ok     bool
	}{
		{"same", func(*report) {}, true},
		{"host time differs", func(r *report) { r.Workloads[0].Traced.Ledger["sim.ns_per_event"] = value{Value: 300} }, true},
		{"workload missing", func(r *report) { r.Workloads = r.Workloads[:1] }, false},
		{"workload added", func(r *report) { r.Workloads = append(r.Workloads, workloadReport{Name: "fstate_k1"}) }, false},
		{"metric missing", func(r *report) { delete(r.Workloads[1].EndToEnd, "setup_s") }, false},
		{"traced pass missing", func(r *report) { r.Workloads[0].Traced = nil }, false},
		{"digest differs", func(r *report) { r.Workloads[0].DigestKey = "e" }, false},
		{"events differ", func(r *report) { r.Workloads[1].Events = 101 }, false},
		{"ledger count differs", func(r *report) { r.Workloads[1].Traced.Ledger["sim.events"] = value{Value: 101} }, false},
		{"ledger count missing", func(r *report) { delete(r.Workloads[1].Traced.Ledger, "sim.events") }, false},
	}
	for _, c := range cases {
		r := mk()
		c.change(&r)
		for _, order := range [][2]string{{base, write("b.json", r)}, {write("b.json", r), base}} {
			table, ok, err := compareReports(order[0], order[1])
			if err != nil {
				t.Fatal(err)
			}
			if ok != c.ok {
				t.Errorf("%s: ok = %v, want %v\n%s", c.name, ok, c.ok, table)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(name string, samples ...float64) stat { return newStat(name, samples, true) }
	const gated = "peak_rss_mb" // bound 10%
	base := mk(gated, 1.00, 1.01, 0.99, 1.00, 1.00)
	cases := []struct {
		name string
		b    stat
		want string
	}{
		{"same", mk(gated, 1.00, 1.01, 1.00, 0.99, 1.01), verdictOK},
		{"worse within bound", mk(gated, 1.05, 1.06, 1.05, 1.05, 1.06), verdictOK},
		{"worse beyond bound", mk(gated, 1.15, 1.16, 1.15, 1.14, 1.15), verdictRegressed},
		{"noisy", mk(gated, 0.90, 1.20, 1.00, 1.10, 0.95), verdictUnresolved},
		{"noisy but every run better", mk(gated, 0.50, 0.80, 0.60, 0.70, 0.55), verdictOK},
	}
	for _, c := range cases {
		if got := judge(base, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	hops := mk("pkt_hops_per_s", 100, 101, 100, 99, 100)
	if got := judge(hops, mk("pkt_hops_per_s", 70, 71, 70, 69, 70)); got != verdictRegressed {
		t.Errorf("higher-is-better metric that fell 30%%: verdict %s", got)
	}
	single := newStat("slowdown", []float64{1}, false)
	if got := judge(single, single); got != verdictUnresolved {
		t.Errorf("metric from a host with nproc < 2: verdict %s, want unresolved", got)
	}
}

// TestQuartilesMatchPython pins the spread to the driver's definition:
// statistics.quantiles(v, n=4) on these values gives 2.75 and 8.25.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
