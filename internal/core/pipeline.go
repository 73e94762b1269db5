package core

import (
	"runtime"
	"sync"
	"sync/atomic"

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
}

// split is the default producer's state: the incremental engine, the tables
// it fills, and the helpers that share each instant's trees with the
// producer. Every worker claims roots from one cursor until the list runs
// out, so a helper the scheduler does not run costs the instant nothing: the
// producer claims its roots instead. One that wins the core the event loop
// wanted holds it for the rest of the instant's roots, which is what the
// split costs a packet run (DESIGN.md, "One forwarding-state producer").
type split struct {
	eng   *routing.IncrementalEngine
	pool  *routing.TablePool
	roots []int
	own   *routing.TreeScratch // the producer's

	next    atomic.Int64 // cursor into roots for the instant being solved
	helpers int
	start   chan *routing.ForwardingTable // one receive per helper per instant; closed to stop them
	busy    sync.WaitGroup                // helpers still claiming this instant's roots
	exited  sync.WaitGroup                // helpers not yet returned
}

// newSplit builds the engine, reserves the run's tables and starts one
// helper per extra worker: workers is GOMAXPROCS at construction, capped at
// the number of roots. Tables do not depend on it (a root's repair only
// ever reads its own settle order); at one worker no helper starts.
func newSplit(topo *routing.Topology, active []int, workers int) *split {
	pool := &routing.TablePool{}
	pool.Reserve(tablesInFlight+1, topo.NumNodes(), topo.NumGS())
	eng := routing.NewIncrementalEngine(topo, pool)
	s := &split{eng: eng, pool: pool, roots: eng.Roots(active), own: eng.NewTreeScratch()}
	s.helpers = max(0, min(workers, len(s.roots))-1)
	s.start = make(chan *routing.ForwardingTable, s.helpers)
	s.exited.Add(s.helpers)
	for range s.helpers {
		go s.helper(eng.NewTreeScratch())
	}
	return s
}

// helper solves the roots it claims of every instant the producer starts,
// until the producer closes start.
func (s *split) helper(sc *routing.TreeScratch) {
	defer s.exited.Done()
	for ft := range s.start {
		s.claim(ft, sc)
		s.busy.Done()
	}
}

// claim solves roots off the shared cursor into ft until none is left.
func (s *split) claim(ft *routing.ForwardingTable, sc *routing.TreeScratch) {
	for {
		i := int(s.next.Add(1)) - 1
		if i >= len(s.roots) {
			return
		}
		s.eng.Fill(ft, s.roots[i:i+1], sc)
	}
}

// newPipeline starts the producer over the given update instants.
func newPipeline(topo *routing.Topology, strategy Strategy, active []int, times []sim.Time) *pipeline {
	p := &pipeline{
		tables:  make(chan *routing.ForwardingTable, tablesInFlight-1),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	var s *split
	if strategy == nil {
		s = newSplit(topo, active, runtime.GOMAXPROCS(0))
	}
	go p.producer(topo, strategy, active, s, times)
	return p
}

// producer walks the instants in order and sends each one's table. Without
// a custom strategy it runs split's routing.IncrementalEngine: between
// consecutive instants every link weight drifts slightly but the
// per-destination settle orders barely move, so re-solving each tree in its
// carried order over the delta layer's cached-visibility snapshots is far
// cheaper than recomputing the instant from scratch, and bitwise identical
// to it. That chain is sequential per destination, not per instant: each
// root carries its own settle order, so once Advance has built and frozen
// the instant's graph the roots are independent, and the producer and its
// helpers solve them at once. A custom strategy is an opaque function, so
// it is called on a from-scratch snapshot of each instant.
//
// The producer's steady-state loop allocates nothing: the repair chain reuses
// the engine's carried arenas, each worker its own TreeScratch, and the
// tables reserved in newSplit end to end, so after the one-time construction
// and the engine's first step (which sizes every arena) each instant is
// produced without touching the heap. TestAllocGuardIncrementalStepActive
// holds a step on this shape at zero, and TestAllocGuardIncrementalStep the
// nil-list one.
func (p *pipeline) producer(topo *routing.Topology, strategy Strategy, active []int, s *split, times []sim.Time) {
	defer close(p.stopped)
	if s != nil {
		defer func() {
			close(s.start)
			s.exited.Wait()
		}()
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
		if s != nil {
			ft = s.pool.Empty(at.Seconds(), topo.NumNodes(), topo.NumGS())
			s.eng.Advance(at.Seconds())
			s.next.Store(0)
			s.busy.Add(s.helpers)
			for range s.helpers {
				s.start <- ft
			}
			s.claim(ft, s.own)
			s.busy.Wait()
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

// close stops the producer and its helpers and waits for them to exit. Only
// needed when a run is abandoned before all update instants were consumed;
// a run executed to completion drains the pipeline and the producer exits
// on its own. Idempotent; must not race with a receive from tables.
func (p *pipeline) close() {
	p.once.Do(func() { close(p.done) })
	<-p.stopped
}
