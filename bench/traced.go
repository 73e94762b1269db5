package main

import (
	"fmt"
	"runtime"
	"time"

	"hypatia/internal/analysis"
	"hypatia/internal/constellation"
	"hypatia/internal/routing"
	"hypatia/internal/sim"
	"hypatia/internal/transport"
)

// span is one timed call into a layer, recorded from outside the program:
// times are nanoseconds since the tracer started, Parent indexes the
// enclosing span (-1 at the root), and spans of one run share Run.
type span struct {
	Name       string `json:"name"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	Parent     int    `json:"parent"`
	Run        int    `json:"run"`
	Mallocs    uint64 `json:"mallocs"`     // MemStats.Mallocs delta over the span
	AllocBytes uint64 `json:"alloc_bytes"` // MemStats.TotalAlloc delta over the span
}

func (s span) ns() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory; -out writes them out when the benchmark ends
// (writeReport).
type tracer struct {
	t0    time.Time
	run   int
	spans []span
	ms    runtime.MemStats
}

func newTracer(run int) *tracer { return &tracer{t0: time.Now(), run: run} }

// begin opens a span. MemStats is read at every boundary so allocation is
// attributed to the same interval as time; the read is the bulk of the
// tracing overhead and is outside the span on both sides.
func (t *tracer) begin(name string, parent int) int {
	runtime.ReadMemStats(&t.ms)
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Run: t.run,
		Mallocs: t.ms.Mallocs, AllocBytes: t.ms.TotalAlloc,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	runtime.ReadMemStats(&t.ms)
	s.Mallocs = t.ms.Mallocs - s.Mallocs
	s.AllocBytes = t.ms.TotalAlloc - s.AllocBytes
}

// named returns the spans with the given name, in recording order.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Span names. The tree is run → setup → {generate, topology, network,
// first_table}, and run → loop → instant → {step, install, sim}.
const (
	spanRun        = "run"
	spanSetup      = "core.setup"
	spanGenerate   = "constellation.Generate"
	spanTopology   = "routing.NewTopology"
	spanNetwork    = "sim.NewNetwork"
	spanFirstTable = "routing.first_table"
	spanLoop       = "core.loop"
	spanInstant    = "core.instant"
	spanStep       = "routing.IncrementalEngine.Step"
	spanInstall    = "sim.InstallForwarding+Release"
	spanSim        = "sim.Simulator.Run"
	spanAnalyze    = "analysis.AnalyzePairs"
)

// tracedResult is the outcome of the traced serial driver.
type tracedResult struct {
	Digest digest
	Counts simCounts
	// LoopWallS is the wall time of the whole serial loop including span
	// bookkeeping: the traced counterpart of the production timed region.
	LoopWallS float64
	// PendingHighwater is the largest Simulator.Pending seen at an instant
	// boundary.
	PendingHighwater int
	// TableChecks counts the instants whose incremental table was compared
	// against Snapshot.ForwardingTable.
	TableChecks int
	Topo        *routing.Topology
}

// tableCheckEvery is how often the traced loop re-derives the table from
// scratch and compares; the comparison runs between spans.
const tableCheckEvery = 50

// runTraced re-implements core.NewRun's loop serially from public calls,
// with a span around each. Its licence to speak for the production run is
// that it produces the same digest; the caller checks that.
//
// Production installs the table for instant i from a closure event at T_i,
// which the event order puts before every packet event at T_i. Here the
// simulator runs to one nanosecond short of T_i, the table is stepped and
// installed, and the next Run picks up the events at T_i — the same order
// without the closure events (so Simulator.Processed differs by one per
// instant, which is why it is not in the digest).
func runTraced(w workload, seed int64, tr *tracer) (tracedResult, error) {
	var res tracedResult
	if w.kind == kindAnalysis {
		return runTracedAnalysis(w, tr)
	}
	root := tr.begin(spanRun, -1)
	setup := tr.begin(spanSetup, root)
	topo, err := tracedTopology(w, tr, setup)
	if err != nil {
		return res, err
	}
	id := tr.begin(spanNetwork, setup)
	s := sim.NewSimulator()
	net, err := sim.NewNetwork(s, topo, w.netConfig())
	tr.end(id)
	if err != nil {
		return res, err
	}
	times := w.instants()
	id = tr.begin(spanFirstTable, setup)
	var pool routing.TablePool
	eng := routing.NewIncrementalEngine(topo, &pool)
	ft := eng.Step(times[0].Seconds(), nil)
	net.InstallForwarding(ft)
	tr.end(id)
	tr.end(setup)

	// check re-derives the installed table from scratch on every 50th
	// instant. It runs between instant spans; its time is taken out of the
	// loop's wall time.
	var checkS float64
	check := func(i int) error {
		if i%tableCheckEvery != 0 {
			return nil
		}
		t0 := time.Now()
		defer func() { checkS += time.Since(t0).Seconds() }()
		res.TableChecks++
		if !ft.Equal(topo.Snapshot(times[i].Seconds()).ForwardingTable()) {
			return fmt.Errorf("traced: incremental table at instant %d differs from Snapshot.ForwardingTable", i)
		}
		return nil
	}

	fs := w.attach(net, &transport.FlowIDs{}, seed)

	loopStart := time.Now()
	loop := tr.begin(spanLoop, root)
	for i := range times {
		inst := tr.begin(spanInstant, loop)
		if i > 0 {
			id = tr.begin(spanStep, inst)
			ft = eng.Step(times[i].Seconds(), nil)
			tr.end(id)
			id = tr.begin(spanInstall, inst)
			net.InstallForwarding(ft).Release()
			tr.end(id)
		}
		until := w.duration()
		if i+1 < len(times) {
			until = times[i+1] - sim.Nanosecond
		}
		id = tr.begin(spanSim, inst)
		s.Run(until)
		tr.end(id)
		tr.end(inst)
		res.PendingHighwater = max(res.PendingHighwater, s.Pending())
		if err := check(i); err != nil {
			return res, err
		}
	}
	tr.end(loop)
	tr.end(root)
	res.LoopWallS = time.Since(loopStart).Seconds() - checkS
	res.Digest, res.Counts = packetDigest(s, net, fs, len(times), ft)
	res.Topo = topo
	return res, nil
}

// tracedTopology is the part of set-up every workload shares.
func tracedTopology(w workload, tr *tracer, parent int) (*routing.Topology, error) {
	id := tr.begin(spanGenerate, parent)
	c, err := constellation.Generate(w.constellation())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(spanTopology, parent)
	topo, err := routing.NewTopology(c, cities(), routing.GSLFree)
	tr.end(id)
	return topo, err
}

// runTracedAnalysis wraps AnalyzePairs in one span: it is a single public
// call, so from outside there is no finer boundary. The finer lines come
// from the snapshot and Dijkstra drives on the same topology.
func runTracedAnalysis(w workload, tr *tracer) (tracedResult, error) {
	var res tracedResult
	root := tr.begin(spanRun, -1)
	setup := tr.begin(spanSetup, root)
	topo, err := tracedTopology(w, tr, setup)
	if err != nil {
		return res, err
	}
	tr.end(setup)

	t0 := time.Now()
	id := tr.begin(spanAnalyze, root)
	stats, err := analysis.AnalyzePairs(topo, w.analysisConfig())
	tr.end(id)
	tr.end(root)
	res.LoopWallS = time.Since(t0).Seconds()
	if err != nil {
		return res, err
	}
	res.Digest = analysisDigest(stats)
	res.Topo = topo
	return res, nil
}
