package main

import (
	"fmt"
	"runtime"
)

// tracedPass is what the traced serial driver and the layer drives measure
// for a workload, in one process. It is never mixed into the end-to-end
// numbers. The lines that compare against an untraced production run
// (core.overlap_gain, core.trace_overhead_frac, core.window_slowdown_tail,
// pkt_hops_per_s) are added by the caller, which runs that repetition in a
// process of its own like every other timed run.
type tracedPass struct {
	Ledger ledger `json:"ledger"`
	// Digest is the traced driver's; reproducing the production digest is
	// what licenses the ledger's numbers.
	Digest digest `json:"digest"`
	// LoopWallS is the traced counterpart of the production timed region.
	LoopWallS   float64 `json:"loop_wall_s"`
	TableChecks int     `json:"table_checks"`
}

// runTracedPass returns the ledger and, beside it, the spans it was summed
// from (see writeReport).
func runTracedPass(w workload, seed int64) (tracedPass, []span, error) {
	var out tracedPass
	tr := newTracer(1)
	traced, err := runTraced(w, seed, tr)
	if err != nil {
		return out, nil, fmt.Errorf("traced run: %w", err)
	}
	out.TableChecks = traced.TableChecks
	out.Digest = traced.Digest
	out.LoopWallS = traced.LoopWallS

	l := ledger{}
	out.Ledger = l
	spanS := func(name string) float64 { return sum(spanNs(tr.named(name))) / 1e9 }

	l.set("core.setup.generate_s", spanS(spanGenerate))
	l.set("core.setup.topology_s", spanS(spanTopology))

	times := w.instants()
	rs := driveRouting(traced.Topo, times)
	l.dist("orbit.positions_ns_per_instant", rs.Positions)
	l.dist("routing.delta_ns_per_instant", rs.Delta)
	l.set("routing.delta_changed_edges_per_instant", sum(rs.DeltaChanged)/float64(len(rs.DeltaChanged)))
	l.dist("routing.snapshot_ns_per_instant", rs.Snapshot)
	l.dist("routing.table_scratch_ns_per_instant", rs.TableScratch)
	l.dist("graph.repair_ns_per_tree", rs.Repair)
	l.dist("graph.dijkstra_ns_per_tree", rs.Dijkstra)
	l.dist("graph.diff_ns_per_instant", rs.Diff)

	if w.kind == kindAnalysis {
		total := spanS(spanAnalyze)
		perStep := total * 1e9 / float64(w.analysisSteps())
		l.set("core.serial_sum_s", total)
		l.set("analysis.ns_per_step", perStep)
		// AnalyzePairs fans one tree per source station (all but the last)
		// over its workers, so the Dijkstra share of a step's wall time is
		// the serial cost divided by the cores it can use.
		trees := float64(traced.Topo.NumGS() - 1)
		cores := float64(min(runtime.GOMAXPROCS(0), analysisWorkers))
		l.set("analysis.residual_ns_per_step",
			perStep-l["routing.snapshot_ns_per_instant"].Value-trees*l["graph.dijkstra_ns_per_tree"].Value/cores)
		return out, tr.spans, nil
	}

	steps, installs, runs := tr.named(spanStep), tr.named(spanInstall), tr.named(spanSim)
	busy := sum(spanNs(runs)) / 1e9
	serial := busy + (sum(spanNs(steps))+sum(spanNs(installs)))/1e9
	l.set("core.setup.network_s", spanS(spanNetwork))
	l.set("core.setup.first_table_s", spanS(spanFirstTable))
	l.set("core.serial_sum_s", serial)
	l.dist("routing.step_ns_per_instant", spanNs(steps))
	// The first step of the loop fills the delta layer's second snapshot
	// buffer (thousands of objects, once); the steady state starts after it.
	if steady := steps[1:]; len(steady) > 0 {
		var mallocs float64
		for _, s := range steady {
			mallocs += float64(s.Mallocs)
		}
		l.set("routing.step_allocs_per_instant", mallocs/float64(len(steady)))
	}
	l.dist("sim.install_ns_per_instant", spanNs(installs))
	l.set("sim.window_busy_s", busy)
	l.set("sim.events", float64(traced.Counts.Events))
	l.set("sim.hops", float64(traced.Digest.Hops))
	l.set("sim.delivered", float64(traced.Digest.Delivered))
	for _, r := range dropReasons {
		l.set(dropMetric(r), float64(traced.Digest.Drops[r.String()]))
	}
	l.set("sim.queue_highwater_max", float64(traced.Counts.QueueHighwater))
	l.set("sim.pending_highwater", float64(traced.PendingHighwater))
	if !w.packets() {
		return out, tr.spans, nil
	}

	hops := float64(traced.Digest.Hops)
	var runMallocs, runBytes float64
	for _, s := range runs {
		runMallocs += float64(s.Mallocs)
		runBytes += float64(s.AllocBytes)
	}
	l.set("sim.ns_per_event", busy*1e9/float64(traced.Counts.Events))
	l.set("sim.ns_per_hop", busy*1e9/hops)
	l.set("sim.allocs_per_hop", runMallocs/hops)
	l.set("sim.bytes_per_hop", runBytes/hops)
	// No more events than the workload itself processed, so a scaled-down
	// workload gets a scaled-down drive.
	l.set("sim.heap_ns_per_event", driveHeap(traced.PendingHighwater, seed, min(heapEvents, int(traced.Counts.Events))))

	pairs := w.pairs()
	if _, err := driveRawHop(w, traced.Topo, pairs, false); err != nil { // warm-up
		return out, nil, err
	}
	raw, err := driveRawHop(w, traced.Topo, pairs, false)
	if err != nil {
		return out, nil, err
	}
	rawNs := raw.WallS * 1e9 / float64(raw.Hops)
	l.set("sim.raw_hop_ns", rawNs)
	l.set("transport.excess_ns_per_delivered_pkt", (busy*1e9-rawNs*hops)/float64(traced.Digest.Delivered))
	if w.kind == kindTCP {
		l.set("transport.tcp_retx", float64(traced.Counts.TCPRetx))
		l.set("transport.tcp_fast_retx", float64(traced.Counts.TCPFastRetx))
	}
	if w.kind == kindUDP {
		withTrace, err := driveRawHop(w, traced.Topo, pairs, true)
		if err != nil {
			return out, nil, err
		}
		l.set("trace.ns_per_record", (withTrace.WallS-raw.WallS)*1e9/float64(withTrace.Records))
	}
	return out, tr.spans, nil
}

func spanNs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.ns()
	}
	return out
}

// addProductionLines adds the ledger lines that set the traced pass against
// an untraced production repetition (run with per-virtual-second markers).
func (l ledger) addProductionLines(w workload, prod runResult, traced tracedPass) {
	l.set("core.overlap_gain", l["core.serial_sum_s"].Value/prod.WallS)
	l.set("core.trace_overhead_frac", traced.LoopWallS/prod.WallS-1)
	if len(prod.WindowS) > 0 {
		t, label := tail(prod.WindowS)
		l["core.window_slowdown_tail"] = value{
			Value: t, Unit: perLayerDef("core.window_slowdown_tail").Unit, Tail: t, TailLabel: label, N: len(prod.WindowS),
		}
	}
	if w.packets() {
		l.set("pkt_hops_per_s", float64(prod.Digest.Hops)/prod.WallS)
	}
}
