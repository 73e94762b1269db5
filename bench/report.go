package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the repo's experiments.Seed; heldOutSeed is the second seed
// whose digests are recorded, for checking a change on inputs it was not
// developed against.
const (
	defaultSeed = 20201027
	heldOutSeed = 7
)

// setupSampleCount is how many samples setup_s is the median of: with 15 the
// median still moved by an interquartile 8–10% from one invocation to the
// next (Close waits for whatever Step the producer is in). A sample
// is one construction, or for a cheap construction (the analysis workload's
// ~0.5 ms) the mean of a back-to-back batch lasting setupBatchSeconds, which
// spreads a collector cycle over the batch instead of landing it on one
// sample in six.
const (
	setupSampleCount  = 41
	setupBatchSeconds = 0.02
)

// plan is what to measure for each workload.
type plan struct {
	seed     int64
	seconds  float64 // > 0: repeat until this much timed wall has accumulated
	reps     int     // otherwise: this many repetitions
	endToEnd bool
	traced   bool
}

// minReps is the fewest repetitions a -seconds budget may end with: a
// digest needs a second run to agree with.
const minReps = 2

// measurement is what one child process (or in-process call) returns.
type measurement struct {
	Run    *runResult  `json:"run,omitempty"`
	Setup  []float64   `json:"setup,omitempty"`
	Traced *tracedPass `json:"traced,omitempty"`
	Spans  []span      `json:"spans,omitempty"` // of the traced driver
}

// executor runs one measurement. The command runs each in a fresh process
// (measureInChild); the smoke test calls measureInProcess directly.
type executor func(mode string, w workload, seed int64) (measurement, error)

func measureInProcess(mode string, w workload, seed int64) (measurement, error) {
	switch mode {
	case "run", "markers":
		r, err := runProduction(w, seed, mode == "markers")
		return measurement{Run: &r}, err
	case "setup":
		s, err := setupSamples(w, setupSampleCount, setupBatchSeconds)
		return measurement{Setup: s}, err
	case "traced":
		t, spans, err := runTracedPass(w, seed)
		return measurement{Traced: &t, Spans: spans}, err
	}
	return measurement{}, fmt.Errorf("unknown child mode %q", mode)
}

// childTimeout bounds one child process; the contract gives the whole
// invocation 180 s.
const childTimeout = 150 * time.Second

// measureInChild re-executes this binary for one measurement, so that every
// timed run is one workload in a fresh process: GOMAXPROCS=2 (event loop +
// forwarding producer; never more threads than cores), default GOGC, no
// GOMEMLIMIT.
func measureInChild(mode string, w workload, seed int64) (measurement, error) {
	var m measurement
	exe, err := os.Executable()
	if err != nil {
		return m, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10))
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); k != "GOMAXPROCS" && k != "GOGC" && k != "GOMEMLIMIT" {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(benchProcs()))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return m, fmt.Errorf("child %s %s: %w: %s", mode, w.Name, err, strings.TrimSpace(stderr.String()))
	}
	return m, json.Unmarshal(out, &m)
}

// benchProcs is the GOMAXPROCS every measurement runs with.
func benchProcs() int { return min(2, runtime.NumCPU()) }

// comparableHost reports whether this host can show the wall-time ratios:
// with one core the forwarding producer shares it with the event loop.
func comparableHost() bool { return runtime.NumCPU() >= 2 }

// stat is one end-to-end metric over the repetitions of a workload.
type stat struct {
	metricDef
	// Value is the reported number: the median of the samples, except for
	// peak_rss_mb, which reports the lowest.
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
	// Comparable is false when this host cannot show the metric (a ratio
	// that needs a second core, measured without one).
	Comparable bool `json:"comparable"`
}

func newStat(name string, samples []float64, comparable bool) stat {
	s := sorted(samples)
	return stat{metricDef: endToEndDef(name), Value: median(s), Min: s[0], Max: s[len(s)-1],
		Samples: samples, Comparable: comparable}
}

// workloadReport is everything measured for one workload.
type workloadReport struct {
	Name      string          `json:"name"`
	Seed      int64           `json:"seed"`
	VirtualS  float64         `json:"virtual_s"`
	EndToEnd  map[string]stat `json:"end_to_end,omitempty"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Failures  []string        `json:"failures,omitempty"`
	Digest    digest          `json:"digest"`
	DigestKey string          `json:"digest_key"`
	// Golden is "match", "mismatch", or "none" when no digest is recorded
	// for this seed (then repetitions are only checked against each other).
	Golden string      `json:"golden"`
	Events uint64      `json:"events"`
	Traced *tracedPass `json:"traced,omitempty"`
	// TracedDigestOK is true when the traced driver reproduced the
	// production digest.
	TracedDigestOK bool `json:"traced_digest_ok"`
	// Spans are the traced driver's; writeReport puts them in a file of
	// their own.
	Spans []span `json:"-"`
}

type report struct {
	Host      hostInfo         `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

// writeReport writes the report to path (x.json) and the traced passes' spans
// beside it (x.spans.json, workload name → spans): the ledger is a few hundred
// numbers, the spans it was summed from are thousands of records.
func writeReport(path string, r report) error {
	if err := writeJSON(path, r); err != nil {
		return err
	}
	spans := map[string][]span{}
	for _, wr := range r.Workloads {
		if wr.Spans != nil {
			spans[wr.Name] = wr.Spans
		}
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(spansPath(path), append(b, '\n'), 0o644)
}

func spansPath(reportPath string) string {
	return strings.TrimSuffix(reportPath, ".json") + ".spans.json"
}

func (r report) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

func (r report) maxReps() int {
	n := 0
	for _, w := range r.Workloads {
		if s, ok := w.EndToEnd["slowdown"]; ok {
			n = max(n, len(s.Samples))
		}
	}
	return n
}

// measureWorkload runs the plan's passes for one workload, strictly one
// measurement after another.
func measureWorkload(ex executor, w workload, p plan) workloadReport {
	wr := workloadReport{Name: w.Name, Seed: p.seed, VirtualS: w.virtualS, Golden: "none"}
	want, haveGolden := goldenDigest(w, p.seed)
	fail := func(format string, args ...any) {
		wr.Failed++
		wr.Failures = append(wr.Failures, fmt.Sprintf(format, args...))
	}
	// accept checks a repetition's digest against the recorded one and
	// against the first repetition of this invocation.
	accept := func(who string, d digest) bool {
		key := d.key()
		if wr.DigestKey == "" {
			wr.Digest, wr.DigestKey = d, key
			if haveGolden {
				wr.Golden = "match"
			}
		}
		switch {
		case haveGolden && key != want:
			wr.Golden = "mismatch"
			fail("%s: digest %s differs from the recorded %s", who, key, want)
		case key != wr.DigestKey:
			fail("%s: digest %s differs from the first repetition's %s", who, key, wr.DigestKey)
		default:
			return true
		}
		return false
	}

	if p.endToEnd {
		var ok []runResult
		var setup []float64
		if m, err := ex("setup", w, p.seed); err != nil {
			wr.Attempted++
			fail("setup: %v", err)
		} else {
			setup = m.Setup
		}
		timed := 0.0
		for i := 0; ; i++ {
			if p.seconds > 0 {
				if i >= minReps && timed >= p.seconds {
					break
				}
			} else if i >= p.reps {
				break
			}
			wr.Attempted++
			m, err := ex("run", w, p.seed)
			if err != nil {
				fail("repetition %d: %v", i, err)
				if wr.Failed > minReps {
					break // do not spend the budget on a workload that cannot run
				}
				continue
			}
			timed += m.Run.WallS
			if accept(fmt.Sprintf("repetition %d", i), m.Run.Digest) {
				ok = append(ok, *m.Run)
				wr.Events = m.Run.Counts.Events
			}
		}
		wr.EndToEnd = endToEndStats(w, ok, setup, wr.Failed, wr.Attempted)
	}

	if p.traced {
		wr.Attempted += 2 // an untraced repetition with window markers, and the traced driver
		prod, err := ex("markers", w, p.seed)
		if err != nil {
			fail("traced pass, untraced repetition: %v", err)
			return wr
		}
		accept("traced pass, untraced repetition", prod.Run.Digest)
		m, err := ex("traced", w, p.seed)
		if err != nil {
			fail("traced pass: %v", err)
			return wr
		}
		wr.Traced, wr.Spans = m.Traced, m.Spans
		wr.TracedDigestOK = accept("traced driver", m.Traced.Digest)
		wr.Traced.Ledger.addProductionLines(w, *prod.Run, *m.Traced)
	}
	return wr
}

// endToEndStats folds the successful repetitions into the end-to-end
// metrics. A metric that does not apply to the workload is left out.
func endToEndStats(w workload, runs []runResult, setup []float64, failed, attempted int) map[string]stat {
	out := map[string]stat{}
	// add records one metric computed per repetition. needsCore marks the
	// wall-time metrics, which need the producer's second core to compare.
	add := func(name string, needsCore bool, f func(runResult) float64) {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = f(r)
		}
		out[name] = newStat(name, v, !needsCore || comparableHost())
	}
	if len(runs) > 0 {
		add("slowdown", true, func(r runResult) float64 { return r.WallS / w.virtualS })
		add("cpu_s_per_vsec", false, func(r runResult) float64 { return r.CPUS / w.virtualS })
		if w.packets() {
			add("pkt_hops_per_s", true, func(r runResult) float64 { return float64(r.Digest.Hops) / r.WallS })
		}
		add("alloc_mb_per_vsec", false, func(r runResult) float64 { return float64(r.AllocBytes) / 1e6 / w.virtualS })
		// A high-water mark is pushed up by when the collector happens to
		// run and never down, so the lowest repetition is the steady one (the
		// analysis workload's median flips between 12.2 and 13.2 MB).
		add("peak_rss_mb", false, func(r runResult) float64 { return r.PeakRSSMB })
		rss := out["peak_rss_mb"]
		rss.Value = rss.Min
		out["peak_rss_mb"] = rss
	}
	if len(setup) > 0 {
		out["setup_s"] = newStat("setup_s", setup, true)
	}
	if attempted > 0 {
		out["failed_share"] = newStat("failed_share", []float64{float64(failed) / float64(attempted)}, true)
	}
	return out
}

// contractLine is the driver's result object: every manifest end-to-end
// metric with -trace 0, every per-layer metric with -trace 1 (0 where the
// layer is not exercised by the workload).
func (wr workloadReport) contractLine(tracePass int) map[string]any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if tracePass == 0 {
		for _, d := range endToEnd {
			if d.manifest {
				metrics[d.Name] = mv{wr.EndToEnd[d.Name].Value, d.Unit}
			}
		}
	} else {
		for _, d := range perLayer {
			var v float64
			if wr.Traced != nil {
				v = wr.Traced.Ledger[d.Name].Value
			}
			metrics[d.Name] = mv{v, d.Unit}
		}
	}
	return map[string]any{
		"correct":   wr.Failed == 0,
		"attempted": wr.Attempted,
		"failed":    wr.Failed,
		"metrics":   metrics,
	}
}

// hostInfo is the fingerprint carried by every output.
type hostInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"repetitions"`
	// Comparable is false when nproc < 2: slowdown and core.overlap_gain
	// are then reported but marked, and -compare refuses to judge them.
	Comparable bool `json:"comparable"`
}

func hostFingerprint(seed int64) hostInfo {
	h := hostInfo{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: benchProcs(), GOGC: "100 (default; GOGC and GOMEMLIMIT are cleared for every measurement)",
		CPUModel: "unknown", Seed: seed, Comparable: comparableHost(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "unknown" { // `go run` does not stamp the binary
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	if cpuinfo, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(cpuinfo), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func formatHost(h hostInfo) string {
	out := &strings.Builder{}
	fmt.Fprintf(out, "host: commit=%s go=%s nproc=%d GOMAXPROCS=%d GOGC=%s cpu=%q seed=%d repetitions=%d\n",
		h.Commit, h.GoVersion, h.NProc, h.GOMAXPROCS, h.GOGC, h.CPUModel, h.Seed, h.Reps)
	if !h.Comparable {
		fmt.Fprintln(out, "host: nproc < 2 — slowdown, pkt_hops_per_s and core.overlap_gain are NOT COMPARABLE from this host")
	}
	fmt.Fprintln(out, "host time is noisy; every simulated count and digest repeats exactly")
	return out.String()
}

// formatWorkload lists every metric of one workload by name, with unit,
// direction and (end to end) bound.
func formatWorkload(h hostInfo, wr workloadReport) string {
	out := &strings.Builder{}
	fmt.Fprintf(out, "== %s  seed=%d  virtual=%gs  digest=%s (recorded: %s)  attempted=%d failed=%d\n",
		wr.Name, wr.Seed, wr.VirtualS, wr.DigestKey, wr.Golden, wr.Attempted, wr.Failed)
	for _, f := range wr.Failures {
		fmt.Fprintf(out, "   FAILED %s\n", f)
	}
	if wr.EndToEnd != nil {
		fmt.Fprintf(out, "  end-to-end: median of the repetitions (peak_rss_mb: lowest) [min .. max] n; better; bound = allowed worsening\n")
		for _, d := range endToEnd {
			s, ok := wr.EndToEnd[d.Name]
			if !ok {
				fmt.Fprintf(out, "    %-20s %14s %-6s %-6s  not applicable to this workload\n", d.Name, "-", d.Unit, d.Better)
				continue
			}
			note := ""
			if !s.Comparable {
				note = "  NOT COMPARABLE (nproc < 2)"
			}
			bound := fmt.Sprintf("%g%%", 100*d.Bound)
			if d.Bound == 0 {
				bound = "any increase"
			}
			fmt.Fprintf(out, "    %-20s %14.6g %-6s %-6s bound %-12s [%.6g .. %.6g] n=%d%s\n",
				d.Name, s.Value, d.Unit, d.Better, bound, s.Min, s.Max, len(s.Samples), note)
		}
		fmt.Fprintf(out, "    simulator events (not in the digest): %d\n", wr.Events)
	}
	if wr.Traced != nil {
		fmt.Fprintf(out, "  per-layer (traced serial driver; reproduces the production digest: %v; %d from-scratch table checks): p50 [tail] n; better\n",
			wr.TracedDigestOK, wr.Traced.TableChecks)
		for _, d := range perLayer {
			v, ok := wr.Traced.Ledger[d.Name]
			if !ok {
				continue
			}
			dist, note := "", ""
			if v.N > 0 {
				dist = fmt.Sprintf(" [%s %.6g] n=%d", v.TailLabel, v.Tail, v.N)
			}
			if d.Name == "core.overlap_gain" && !h.Comparable {
				note = "  NOT COMPARABLE (nproc < 2)"
			}
			fmt.Fprintf(out, "    %-42s %14.6g %-6s %-6s%s%s\n", d.Name, v.Value, d.Unit, d.Better, dist, note)
		}
	}
	return out.String()
}

// manifest is BENCHMARK.json: exactly the keys the driver's contract names.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is how long one contract run measures: three to five
// repetitions of a 4–6 s workload, which with set-up and the process
// start-ups stays inside the driver's per-run share of its time cap.
const runSeconds = 20

func benchmarkManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		if d.manifest {
			b := d.Bound
			m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
		}
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

// goldenEntry is one recorded digest.
type goldenEntry struct {
	Key    string `json:"key"`
	Digest digest `json:"digest"`
}

//go:embed golden.json
var goldenJSON []byte

// goldenSeedKey is the seed a digest is filed under: workloads without
// traffic have no flow starts to jitter, so their inputs are the same for
// every seed.
func goldenSeedKey(w workload, seed int64) string {
	if !w.packets() {
		return "any"
	}
	return strconv.FormatInt(seed, 10)
}

func loadGolden() map[string]map[string]goldenEntry {
	g := map[string]map[string]goldenEntry{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("bench: golden.json: %v", err))
	}
	return g
}

// goldenDigest returns the recorded digest key for a workload and seed.
// Only full-size workloads have one: a scaled copy (the smoke test) is
// checked for repeatability alone.
func goldenDigest(w workload, seed int64) (string, bool) {
	if w.reduced {
		return "", false
	}
	e, ok := loadGolden()[w.Name][goldenSeedKey(w, seed)]
	return e.Key, ok
}

// recordGolden merges the report's digests into the golden file.
func recordGolden(path string, r report, seed int64) error {
	g := loadGolden()
	for _, wr := range r.Workloads {
		if wr.Failed > 0 && wr.Golden != "mismatch" {
			return fmt.Errorf("%s: not recording a digest from a failed run", wr.Name)
		}
		w, err := workloadByName(wr.Name)
		if err != nil {
			return err
		}
		if g[wr.Name] == nil {
			g[wr.Name] = map[string]goldenEntry{}
		}
		g[wr.Name][goldenSeedKey(w, seed)] = goldenEntry{Key: wr.DigestKey, Digest: wr.Digest}
	}
	return writeJSON(path, g)
}
