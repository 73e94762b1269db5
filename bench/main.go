// Command bench is the repository's benchmark: Fig 2-shaped end-to-end runs
// on four workloads, and a per-layer ledger from a traced serial driver.
// README.md in this directory explains the metrics, the workloads and how to
// read the output.
//
//	go run ./bench                         every workload, both passes
//	go run ./bench -out a.json             ... and write the full report, and the spans to a.spans.json
//	go run ./bench -compare a.json b.json  A/B two reports against the bounds
//	go run ./bench --workload udp_perm100 --seed 7 --seconds 20 --trace 0
//
// The last form is the driver's contract, selected by --seconds: one workload,
// one pass, repetitions until that much timed wall has accumulated, a single
// JSON object as the last line of standard output, and exit code 0 whenever
// that line was printed (failures are in it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all)")
		seed         = flag.Int64("seed", defaultSeed, "seed of the flows' start offsets")
		seconds      = flag.Float64("seconds", 0, "driver's contract: repeat until this many timed seconds (needs -workload and -trace 0|1), print the result line")
		reps         = flag.Int("reps", 5, "repetitions per workload")
		tracePass    = flag.Int("trace", -1, "0: end-to-end pass only; 1: traced per-layer pass only; -1: both")
		outPath      = flag.String("out", "", "write the full report (samples, digests, ledger) to x.json and the traced spans to x.spans.json")
		compare      = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		updateGolden = flag.Bool("update-golden", false, "record the digests of this run in bench/golden.json")
		child        = flag.String("child", "", "internal: run one measurement in this process (run, markers, setup, traced)")
	)
	flag.Parse()

	switch {
	case *manifest:
		must(json.NewEncoder(os.Stdout).Encode(benchmarkManifest()))
		return
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare a.json b.json")
		}
		table, ok, err := compareReports(flag.Arg(0), flag.Arg(1))
		must(err)
		fmt.Print(table)
		if !ok {
			os.Exit(1)
		}
		return
	case *child != "":
		w, err := workloadByName(*workloadName)
		must(err)
		res, err := measureInProcess(*child, w, *seed)
		must(err)
		must(json.NewEncoder(os.Stdout).Encode(res))
		return
	}

	selected := workloads
	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		must(err)
		selected = []workload{w}
	}
	// Only the driver passes -seconds, so that is what selects its output and
	// exit code; -workload with -trace alone is an ordinary run of one pass.
	contract := *seconds > 0
	if contract && (*workloadName == "" || (*tracePass != 0 && *tracePass != 1)) {
		fatalf("usage: -seconds needs -workload <name> and -trace 0|1")
	}
	host := hostFingerprint(*seed)
	if contract && !host.Comparable {
		// A ratio captured on hardware that cannot show it does not count:
		// refuse rather than hand the driver a slowdown with no second core
		// for the forwarding producer.
		fatalf("bench: nproc=%d < 2: slowdown and core.overlap_gain are not comparable on this host", host.NProc)
	}

	p := plan{seed: *seed, seconds: *seconds, reps: *reps,
		endToEnd: *tracePass != 1, traced: *tracePass != 0}
	rep := report{Host: host}
	for _, w := range selected {
		wr := measureWorkload(measureInChild, w, p)
		rep.Workloads = append(rep.Workloads, wr)
		fmt.Print(formatWorkload(host, wr))
	}
	rep.Host.Reps = rep.maxReps()
	fmt.Print(formatHost(rep.Host))

	if *outPath != "" {
		must(writeReport(*outPath, rep))
	}
	if *updateGolden {
		must(recordGolden("bench/golden.json", rep, *seed))
	}
	if contract {
		must(json.NewEncoder(os.Stdout).Encode(rep.Workloads[0].contractLine(*tracePass)))
		return
	}
	if rep.failed() > 0 {
		os.Exit(1)
	}
}

func must(err error) {
	if err != nil {
		fatalf("bench: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
