//go:build !hypatia_checks

package core

import (
	"math"
	"testing"

	"hypatia/internal/routing"
)

// TestWorkGuardForwardingState holds the forwarding-state producer to work
// budgets on a reduced fstate_k1 chain: K1 toward all 100 cities, 200
// instants at 100 ms. Counts depend only on the code and its input, so
// unlike wall time they read the same on any host and at any worker count:
//
//   - graph builds: exactly one per instant. The split builds each instant's
//     graph while the instant before it solves its trees; a prefetch the
//     next instant does not adopt costs a second build.
//   - second-pass nodes per tree: how tight the carried settle orders stay
//     (graph.RepairSSSPDense's refresh rule). The rule reads 3.06 here;
//     without its insertion re-sort the count climbs with the chain and
//     averages 77.6 over these 200 instants.
//   - entries set to -1 per instant: 0 with every city a destination, since
//     each tree overwrites its column whole; blanking the whole table first
//     would read 125 600.
//
// The file is left out of the hypatia_checks build, whose oracle re-derives
// every tree from scratch and would only make the chain slow.
func TestWorkGuardForwardingState(t *testing.T) {
	const (
		instants         = 200
		secondPassBudget = 8.0 // per tree
	)
	topo := benchKuiperTopo(t)
	ps := newProducerState(topo, nil)
	defer ps.split.Close()
	at := func(i int) float64 { return 0.1 * float64(i) }
	var first routing.Work
	for i := range instants {
		next := math.NaN()
		if i+1 < instants {
			next = at(i + 1)
		}
		ps.table(at(i), next).Release()
		if i == 0 {
			first = ps.split.Work()
		}
	}
	w := ps.split.Work()
	if w.Builds != instants {
		t.Errorf("%d graph builds over %d instants, want exactly one per instant", w.Builds, instants)
	}
	// The first instant's trees are from-scratch Dijkstras with no second
	// pass; the budget is on the repairs after it.
	trees := w.Trees - first.Trees
	perTree := float64(w.SecondPass-first.SecondPass) / float64(trees)
	if perTree > secondPassBudget {
		t.Errorf("%.2f second-pass nodes per tree over %d repaired trees, budget %.0f: the carried settle orders have decayed",
			perTree, trees, secondPassBudget)
	}
	if w.Blanked != 0 {
		t.Errorf("%d entries set to -1 over %d instants with every city a destination, want 0: every column is a tree's",
			w.Blanked, instants)
	}
	t.Logf("per instant: %.2f builds, %.0f entries set to -1; %.3f second-pass nodes per repaired tree",
		float64(w.Builds)/instants, float64(w.Blanked)/instants, perTree)
}

// TestWorkGuardPacketPath holds the event engine to work budgets on a
// reduced udp_perm100 shape: BenchmarkSimSerial's K1, 100 cities, one
// line-rate UDP flow per permutation pair at 100 Mbit/s, each starting
// within the first 10 ms, 200 virtual ms. The counts are the engine's
// (sim.Work) and read the same on any host:
//
//   - events processed: exactly the recorded count. A change that adds an
//     event per hop or per packet, or drops one, moves it, and must say
//     why here.
//   - FIFO links: nearly every receive waits behind its device's FIFO head,
//     out of the heap and the run. Fallbacks, which cost an insert each,
//     stay under 1 % of the links (they read 0.634 %, most of them while
//     the flows start; 0.06 % over udp_perm100's 2 s); a linkFlight that
//     always fell back reads 100 %.
//   - FIFO heads: a FIFO runs empty only when its device goes idle, which
//     reads 877 times here; budget 1 000.
//   - run pops: each event inserted a little behind everything pending joins
//     the queue's sorted run and pops from it without touching the heap.
//     They read 49.2 % of the events here, where the links are still
//     filling, and 95.1 % over udp_perm100's 2 s; floor 40 %. A run that
//     admitted nothing reads 0.
//   - root pushes: each pop prefetches the record that is next, which is the
//     next one popped unless an insert takes the queue's minimum first. An
//     insert does so only when nothing pending is earlier, which reads 8
//     times here (8 over udp_perm100's 2 s); budget 20. A timer or flow that
//     schedules at the current instant reads one per arm.
func TestWorkGuardPacketPath(t *testing.T) {
	const (
		events           = 983_179
		headsBudget      = 1_000
		rootPushesBudget = 20
	)
	run := newSimShape(t, false)
	run.Execute()
	w := run.Sim.Work()
	links := w.Behind + w.Heads + w.Fallbacks
	t.Logf("%+v: %d FIFO links, %.3f %% fell back; %.1f %% of the events popped from the run",
		w, links, 100*float64(w.Fallbacks)/float64(links), 100*float64(w.RunPops)/float64(w.Events))
	if w.Events != events {
		t.Errorf("%d events processed, want exactly %d", w.Events, events)
	}
	if 100*w.Fallbacks > links {
		t.Errorf("%d of %d FIFO links fell back, budget 1 %%: in-flight receives are not waiting behind their FIFO heads",
			w.Fallbacks, links)
	}
	if w.Heads > headsBudget {
		t.Errorf("%d FIFO heads, budget %d", w.Heads, headsBudget)
	}
	if 10*w.RunPops < 4*w.Events {
		t.Errorf("%d of %d events popped from the run, floor 40 %%: the rotation is going through the heap",
			w.RunPops, w.Events)
	}
	if w.RootPushes > rootPushesBudget {
		t.Errorf("%d inserts took the queue's minimum, budget %d: each one wastes the prefetch of the next record to pop",
			w.RootPushes, rootPushesBudget)
	}
}

// TestWorkGuardPacketPathTCP is TestWorkGuardPacketPath's twin on the TCP
// shape, BenchmarkSimSerialTCP's: NewReno per permutation pair on 25 Mbit/s
// links, each flow starting within the first 10 ms, 2 virtual s. It pins the
// event mix of tcp_perm100, the workload a packet-path change must not slow:
//
//   - events processed: exactly the recorded count, as above.
//   - FIFO links: ACKs and data share devices and windows open and close, so
//     FIFOs run empty far more often than under UDP: heads read 3.84 % of
//     the links (budget 5 %) and fallbacks 2.16 % (budget 3 %).
//   - run pops: TCP's rotation is its ACK trains, whose 40-byte ACKs are
//     12.8 µs apart on a 25 Mbit/s link. They read 25.5 % of the events
//     (tcp_perm100: 23.8 %); floor 15 %, which a run that admitted nothing
//     fails, and a runSlack of 10 µs too (8.1 %).
//   - root pushes: 8, budget 20, as above.
func TestWorkGuardPacketPathTCP(t *testing.T) {
	const (
		events           = 1_004_278
		rootPushesBudget = 20
	)
	run := newSimShape(t, true)
	run.Execute()
	w := run.Sim.Work()
	links := w.Behind + w.Heads + w.Fallbacks
	t.Logf("%+v: %d FIFO links, %.3f %% heads, %.3f %% fell back; %.2f %% of the events popped from the run",
		w, links, 100*float64(w.Heads)/float64(links), 100*float64(w.Fallbacks)/float64(links), 100*float64(w.RunPops)/float64(w.Events))
	if w.Events != events {
		t.Errorf("%d events processed, want exactly %d", w.Events, events)
	}
	if 20*w.Heads > links {
		t.Errorf("%d of %d FIFO links entered as heads, budget 5 %%", w.Heads, links)
	}
	if 100*w.Fallbacks > 3*links {
		t.Errorf("%d of %d FIFO links fell back, budget 3 %%", w.Fallbacks, links)
	}
	if 100*w.RunPops < 15*w.Events {
		t.Errorf("%d of %d events popped from the run, floor 15 %%", w.RunPops, w.Events)
	}
	if w.RootPushes > rootPushesBudget {
		t.Errorf("%d inserts took the queue's minimum, budget %d", w.RootPushes, rootPushesBudget)
	}
}
