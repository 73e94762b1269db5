package core

import (
	"sync"

	"hypatia/internal/routing"
	"hypatia/internal/sim"
)

// tablesInFlight bounds how many forwarding tables may exist ahead of the
// event loop, computed but not yet installed. It is 3 because the two sides
// are never close: a producer step takes 3–5 ms, and the event loop asks for
// a table every 160–230 ms of wall time under line-rate UDP, every 25–35 ms
// under TCP, or — with no traffic — is always the one waiting. Either side
// is so far ahead of the other that a deeper buffer only pins idle
// NumNodes×NumGS arenas (DESIGN.md, "One forwarding-state producer").
// With the table the network holds installed, a run owns at most
// tablesInFlight+1 tables at any moment, and the producer reserves exactly
// that many before its first step.
const tablesInFlight = 3

// pipeline precomputes forwarding state ahead of the event loop. The run's
// update instants are known in advance and each instant's table is a pure
// function of its time, so one producer goroutine computes the tables for
// future instants concurrently with DES execution; the install event for an
// instant then receives a completed table from the channel instead of
// stalling the event loop on a snapshot build plus a per-destination
// shortest-path sweep.
//
// Overlap cannot change simulation results: tables are delivered strictly
// in instant order, each table's content depends only on the topology and
// its instant (never on DES state), and the event loop itself stays
// single-threaded — the only code that runs concurrently with it is this
// precomputation of values it would have computed identically, later.
type pipeline struct {
	// tables carries the tables in instant order, one receive per instant
	// (sim.Network.ScheduleInstalls). Its buffer holds tablesInFlight-1: the
	// producer holds one more while blocked sending.
	tables  chan *routing.ForwardingTable
	done    chan struct{} // closed by close to stop the producer early
	stopped chan struct{} // closed by the producer on exit
	once    sync.Once
}

// newPipeline starts the producer over the given update instants.
func newPipeline(topo *routing.Topology, strategy Strategy, active []int, times []sim.Time) *pipeline {
	p := &pipeline{
		tables:  make(chan *routing.ForwardingTable, tablesInFlight-1),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go p.producer(topo, strategy, active, times)
	return p
}

// producer walks the instants in order and sends each one's table. Without
// a custom strategy it owns a routing.IncrementalEngine: between consecutive
// instants every link weight drifts slightly but the per-destination settle
// orders barely move, so re-solving each tree in its carried order over the
// delta layer's cached-visibility snapshots is far cheaper than recomputing
// the instant from scratch, and bitwise identical to it. That chain is
// inherently sequential, which is why there is one producer and not a pool.
// A custom strategy is an opaque function, so it is called on a from-scratch
// snapshot of each instant.
//
// The producer's steady-state loop allocates nothing: the repair chain reuses
// the engine's carried arenas and the tables reserved here end to end, so
// after the one-time construction and the engine's first step (which sizes
// every arena, IncrementalEngine.prime) each instant is produced without
// touching the heap. TestAllocGuardIncrementalStepActive holds a step on this
// shape at zero, and TestAllocGuardIncrementalStep the nil-list one.
func (p *pipeline) producer(topo *routing.Topology, strategy Strategy, active []int, times []sim.Time) {
	defer close(p.stopped)
	var eng *routing.IncrementalEngine
	if strategy == nil {
		pool := &routing.TablePool{}
		pool.Reserve(tablesInFlight+1, topo.NumNodes(), topo.NumGS())
		eng = routing.NewIncrementalEngine(topo, pool)
	}
	var snap *routing.Snapshot
	for _, at := range times {
		// A closed run stops here rather than at the send below, where a
		// free buffer slot and the stop signal are both ready and select
		// picks one at random: close then waits for the step in progress
		// and not, half the time, for another one after it.
		select {
		case <-p.done:
			return
		default:
		}
		var ft *routing.ForwardingTable
		if eng != nil {
			ft = eng.Step(at.Seconds(), active)
		} else {
			snap = topo.SnapshotInto(at.Seconds(), snap)
			ft = strategy(snap, active)
		}
		select {
		case p.tables <- ft:
		case <-p.done:
			return
		}
	}
}

// close stops the producer and waits for it to exit. Only needed when a run
// is abandoned before all update instants were consumed; a run executed to
// completion drains the pipeline and the producer exits on its own.
// Idempotent; must not race with a receive from tables.
func (p *pipeline) close() {
	p.once.Do(func() { close(p.done) })
	<-p.stopped
}
