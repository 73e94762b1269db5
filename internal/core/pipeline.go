package core

import (
	"math"
	"sync"

	"hypatia/internal/routing"
	"hypatia/internal/sim"
)

// tablesInFlight bounds how many forwarding tables may exist ahead of the
// event loop, computed but not yet installed. It is 3 because the two sides
// are never close: a producer step costs 3–5 ms of CPU (less wall time when
// its trees split across idle cores), and the event loop asks for a table
// every 160–230 ms of wall time under line-rate UDP, every 25–35 ms under
// TCP, or — with no traffic — is always the one waiting. Either side is so
// far ahead of the other that a deeper buffer only pins idle
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

	split *routing.Split // the default producer's, which close stops mid-instant; nil for a custom strategy
}

// producerState is the default producer's: the incremental engine's split
// over the run's destinations, which draws the tables from the pool the
// producer reserves, and the table the instant being solved fills, which
// the split's visitor writes each tree into.
type producerState struct {
	split *routing.Split
	ft    *routing.ForwardingTable
}

// newProducerState builds the engine and its split and reserves the run's
// tables. The split's worker count is GOMAXPROCS now, capped at the number
// of destinations; tables do not depend on it.
func newProducerState(topo *routing.Topology, active []int) *producerState {
	pool := &routing.TablePool{}
	pool.Reserve(tablesInFlight+1, topo.NumNodes(), topo.NumGS())
	ps := &producerState{}
	ps.split = routing.NewIncrementalEngine(topo, pool).NewSplit(active, func(_, gs int, _ []float64, prev []int32) {
		ps.ft.SetDestination(gs, prev)
	})
	return ps
}

// table computes the table of time tsec, building the graph of next (NaN:
// none) while the trees run. Only the columns of destinations outside the
// run's list are set unreachable first; every tree overwrites its own. It
// returns nil when the split was stopped before every tree was in: such a
// table is incomplete, and goes back to the pool.
func (ps *producerState) table(tsec, next float64) *routing.ForwardingTable {
	ps.ft = ps.split.Table(tsec)
	if !ps.split.Solve(tsec, next) {
		ps.ft.Release()
		return nil
	}
	return ps.ft
}

// newPipeline starts the producer over the given update instants.
func newPipeline(topo *routing.Topology, strategy Strategy, active []int, times []sim.Time) *pipeline {
	p := &pipeline{
		tables:  make(chan *routing.ForwardingTable, tablesInFlight-1),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	var ps *producerState
	if strategy == nil {
		ps = newProducerState(topo, active)
		p.split = ps.split
	}
	go p.producer(topo, strategy, active, ps, times)
	return p
}

// producer walks the instants in order and sends each one's table. Without
// a custom strategy it runs a routing.IncrementalEngine: between
// consecutive instants every link weight drifts slightly but the
// per-destination settle orders barely move, so re-solving each tree in its
// carried order over the delta layer's cached-visibility snapshots is far
// cheaper than recomputing the instant from scratch, and bitwise identical
// to it. That chain is sequential per destination, not per instant: each
// root carries its own settle order, so once the engine has built and
// frozen the instant's graph the roots are independent, and its
// routing.Split solves them on every core while it builds the next
// instant's graph on the side. A custom strategy is an opaque
// function, so it is called on a from-scratch snapshot of each instant.
//
// The producer's steady-state loop allocates nothing: the repair chain
// reuses the engine's carried arenas, each split worker its own scratch,
// and the tables reserved in newProducerState end to end, so after the
// one-time construction and the engine's first step (which sizes every
// arena) each instant is produced without touching the heap. TestAllocGuardIncrementalStepActive
// holds a step on this shape at zero, and TestAllocGuardIncrementalStep the
// nil-list one.
func (p *pipeline) producer(topo *routing.Topology, strategy Strategy, active []int, ps *producerState, times []sim.Time) {
	defer close(p.stopped)
	if ps != nil {
		defer ps.split.Close()
	}
	var snap *routing.Snapshot
	for i, at := range times {
		// A closed run stops here rather than at the send below, where a
		// free buffer slot and the stop signal are both ready and select
		// picks one at random: close then waits for the step in progress
		// (a custom strategy's whole, the split's one tree per worker) and
		// not, half the time, for another one after it.
		select {
		case <-p.done:
			return
		default:
		}
		var ft *routing.ForwardingTable
		if ps != nil {
			next := math.NaN()
			if i+1 < len(times) {
				next = times[i+1].Seconds()
			}
			if ft = ps.table(at.Seconds(), next); ft == nil {
				return // stopped by close mid-instant
			}
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

// close stops the producer and its helpers and waits for them to exit: the
// instant in progress is abandoned within one tree per split worker, and its
// incomplete table is never sent. Only needed when a run is abandoned before
// all update instants were consumed; a run executed to completion drains the
// pipeline and the producer exits on its own. Idempotent; must not race
// with a receive from tables.
func (p *pipeline) close() {
	p.once.Do(func() {
		if p.split != nil {
			p.split.Stop()
		}
		close(p.done)
	})
	<-p.stopped
}
