package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hypatia/internal/analysis"
	"hypatia/internal/constellation"
	"hypatia/internal/core"
	"hypatia/internal/routing"
	"hypatia/internal/sim"
)

// runResult is what one production repetition measures: the timed region is
// Run.Execute (or AnalyzePairs) and nothing else. Construction, flow
// attachment and the digest walk all sit outside it.
type runResult struct {
	WallS      float64   `json:"wall_s"`
	CPUS       float64   `json:"cpu_s"`       // user+sys over the timed region (getrusage)
	AllocBytes uint64    `json:"alloc_bytes"` // MemStats.TotalAlloc delta over the timed region
	PeakRSSMB  float64   `json:"peak_rss_mb"` // VmHWM at exit of the timed region's process
	Digest     digest    `json:"digest"`
	Counts     simCounts `json:"counts"`
	// WindowS is the wall time of each virtual-second window, filled only
	// when markers were requested.
	WindowS []float64 `json:"window_s,omitempty"`
}

// meter brackets a timed region with wall clock, process CPU time and
// allocated bytes.
type meter struct {
	t0    time.Time
	cpu0  float64
	alloc uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{alloc: ms.TotalAlloc, cpu0: cpuSeconds(), t0: time.Now()}
}

func (m meter) stop(r *runResult) {
	r.WallS = time.Since(m.t0).Seconds()
	r.CPUS = cpuSeconds() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.AllocBytes = ms.TotalAlloc - m.alloc
	r.PeakRSSMB = peakRSSMB()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// runProduction executes one repetition of the workload the way a user
// would: core.NewRun + Execute on the default producer, or AnalyzePairs.
// With markers set it also schedules one closure per virtual second to time
// each window; that run feeds the per-layer ledger, never an end-to-end
// number.
func runProduction(w workload, seed int64, markers bool) (runResult, error) {
	if w.kind == kindAnalysis {
		return runAnalysis(w)
	}
	var res runResult
	run, err := core.NewRun(w.runConfig())
	if err != nil {
		return res, err
	}
	defer run.Close()
	fs := w.attach(run.Net, run.Flows, seed)

	var marks []time.Time
	if markers {
		for at := sim.Second; at <= w.duration(); at += sim.Second {
			run.Sim.ScheduleAt(at, func() { marks = append(marks, time.Now()) })
		}
	}

	m := startMeter()
	run.Execute()
	m.stop(&res)

	prev := m.t0
	for _, t := range marks {
		res.WindowS = append(res.WindowS, t.Sub(prev).Seconds())
		prev = t
	}
	// Installing nil hands back the table of the final instant; the run is
	// over, so nothing forwards on the network again.
	last := run.Net.InstallForwarding(nil)
	res.Digest, res.Counts = packetDigest(run.Sim, run.Net, fs, run.UpdatesInstalled(), last)
	if markers {
		res.Counts.Events -= uint64(len(marks))
	}
	return res, nil
}

func buildTopology(w workload) (*routing.Topology, error) {
	c, err := constellation.Generate(w.constellation())
	if err != nil {
		return nil, err
	}
	return routing.NewTopology(c, cities(), routing.GSLFree)
}

func runAnalysis(w workload) (runResult, error) {
	var res runResult
	topo, err := buildTopology(w)
	if err != nil {
		return res, err
	}
	m := startMeter()
	stats, err := analysis.AnalyzePairs(topo, w.analysisConfig())
	m.stop(&res)
	if err != nil {
		return res, err
	}
	res.Digest = analysisDigest(stats)
	return res, nil
}

// setupSamples times the workload's construction back to back after one
// warm-up: core.NewRun + Close, or Generate + NewTopology for the analysis
// workload. Each of the n samples is the mean of a batch of constructions
// sized from the warm-up to last about batchSeconds (one construction when
// it is slower than that). A single sample varies 2× run to run; the caller
// reports the median.
func setupSamples(w workload, n int, batchSeconds float64) ([]float64, error) {
	construct := func() error {
		if w.kind == kindAnalysis {
			_, err := buildTopology(w)
			return err
		}
		run, err := core.NewRun(w.runConfig())
		if err != nil {
			return err
		}
		run.Close()
		return nil
	}
	t0 := time.Now()
	if err := construct(); err != nil {
		return nil, fmt.Errorf("setup warm-up: %w", err)
	}
	batch := max(1, int(batchSeconds/time.Since(t0).Seconds()))
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			if err := construct(); err != nil {
				return nil, err
			}
		}
		out[i] = time.Since(t0).Seconds() / float64(batch)
	}
	return out, nil
}
