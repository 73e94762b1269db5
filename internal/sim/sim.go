// Package sim is a discrete-event, packet-level network simulator for LEO
// constellations — the Go substitute for the ns-3 module the Hypatia paper
// builds on. It provides the event engine (this file) over its pending-event
// set (queue.go: a sorted run beside a 4-ary heap, in which the earliest of
// a device's in-flight arrivals stands for all of them), re-armable timers
// for the transports (timer.go), a network model (network.go): nodes for
// satellites and ground stations, point-to-point ISL channels, a shared-medium GSL channel, drop-tail queues, per-packet
// propagation delays derived from live satellite positions, and
// forwarding-state updates installed at a configurable time granularity —
// and node-bound scheduling handles (clock.go). There is one event loop, the
// sequential one the paper's ns-3 simulator runs.
//
// A hop costs one event. A device is a non-preemptive fixed-rate FIFO whose
// next hop is fixed at enqueue, so the moment a packet is accepted its
// departure is known: enqueue schedules the arrival at the next node
// directly, and the device's queue is a ring of departure times that drains
// by the clock, whenever somebody reads it, rather than by an event per
// packet (network.go, "device").
//
// Simulated time is an int64 nanosecond count from the start of the run.
// Events are ordered by a canonical content-based key — (time, owning node,
// event kind, per-kind key) — rather than by insertion order alone, so every
// run is bit-for-bit deterministic and every recorded digest and trace is
// defined on that order. A closure's key is its scheduling sequence, so
// events scheduled by user code (Schedule/ScheduleAt), which carry no owner,
// run FIFO among themselves at equal instants.
package sim

import (
	"fmt"
	"math"

	"hypatia/internal/check"
)

// Time is a simulation timestamp or duration in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a float64 second count to a Time, rounding to the
// nearest nanosecond.
func Seconds(s float64) Time { return Time(math.Round(s * 1e9)) }

// Seconds converts the Time to float64 seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time with millisecond precision, rounding half away
// from zero in integer arithmetic. (%.3f formatting rounds half to even and
// loses integer precision near the int64 extremes, which rendered negative
// sub-millisecond durations inconsistently with their positive mirrors.)
func (t Time) String() string {
	var mag uint64
	if t < 0 {
		mag = -uint64(t) // two's-complement magnitude; exact for MinInt64
	} else {
		mag = uint64(t)
	}
	ms := (mag + 500_000) / 1_000_000
	sign := ""
	if t < 0 && ms != 0 {
		sign = "-"
	}
	return fmt.Sprintf("%s%d.%03ds", sign, ms/1000, ms%1000)
}

// evKind tags the payload of an event record. The tag participates in the
// canonical event order (install events sort before everything else at the
// same instant), so the values here are load-bearing. dispatch panics on a
// kind it has no arm for rather than dropping the event.
type evKind uint8

const (
	// evInstall installs the next precomputed forwarding table (key = update
	// instant index). Sorts first so a table change at t is visible to every
	// packet event at t.
	evInstall evKind = iota
	// evClosure runs a func() — user code, transport timers. key is the
	// engine's scheduling sequence (Simulator.nextSeq): FIFO among the same
	// owner.
	evClosure
	// evTransmitDone is the moment a device puts a packet's last bit on the
	// wire (key = device handle, unique per instant and device). The device
	// model itself needs no event there — enqueue already fixed the departure
	// and scheduled the arrival — so the event exists only for a transmission
	// somebody observes at that moment: a transmit hook is installed, or the
	// loss model discarded the packet and the drop is counted and reported
	// there. Unobserved, its place in the order still decides one thing: an
	// event of the same instant sees the device's queue as it was before the
	// departure if it sorts ahead of this key, after it otherwise
	// (Simulator.departed).
	evTransmitDone
	// evReceive delivers a packet to its owner node (key = packet ID,
	// globally unique). Like evTransmitDone it carries its packet in its
	// record.
	evReceive
)

// event is one scheduled occurrence. The comparator (event.before, queue.go)
// orders events by content, not by insertion: at, then owner (-1 for
// unowned/user events), then kind, then the per-kind key. No two events share
// all four: installs are keyed by instant, receives by packet ID, transmit
// completions by device (serialization takes at least a nanosecond, so a
// device completes at most one transmission per instant),
// and closures by scheduling sequence. So the order is total, and any correct
// priority queue pops the same sequence.
type event struct {
	at    Time
	key   uint64
	owner int32
	kind  evKind
	fn    func()
}

// eventKey is the canonical identity of an event occurrence: its place in
// the (at, owner, kind, key) order.
type eventKey struct {
	at    Time
	key   uint64
	owner int32
	kind  evKind
}

// Simulator is a single-threaded discrete-event engine.
type Simulator struct {
	now       Time
	events    eventQueue
	seq       uint64
	processed uint64
	stopped   bool

	// net backlinks to the Network whose tagged events this engine
	// dispatches (set by NewNetwork), and st is that network's mutable
	// state. cur is the canonical key of the executing event — or of the
	// last one executed, between events: everything up to it in the
	// canonical order has run and nothing after it has (beforeAll on a new
	// engine, afterAll once a run has executed every event up to its clock).
	// Devices settle same-instant ties against it (departed).
	net *Network
	st  netState
	cur eventKey
}

// beforeAll and afterAll are the owners of the two sentinel values of
// Simulator.cur: no node id sorts before the first or after the second.
const (
	beforeAll int32 = math.MinInt32
	afterAll  int32 = math.MaxInt32
)

// NewSimulator returns an engine at time zero with no pending events.
func NewSimulator() *Simulator {
	return &Simulator{cur: eventKey{owner: beforeAll}}
}

// departed reports whether the departure device di of node makes at time t
// lies behind the engine: t is past, or it is this very instant and the
// canonical order puts (t, node, evTransmitDone, di) ahead of the executing
// event. That is the one tie rule of the device model. At a departure's own
// nanosecond an unowned closure, a closure of the node and the node's
// earlier-keyed transmit completions still see the packet in the queue; the
// node's evReceive, and anything owned by a later node, see it gone — exactly
// what each saw when every departure was an event.
func (s *Simulator) departed(t Time, node, di int32) bool {
	if t != s.now {
		return t < s.now
	}
	c := &s.cur
	if c.owner != node {
		return c.owner > node
	}
	if c.kind != evTransmitDone {
		return c.kind > evTransmitDone
	}
	return c.key > uint64(di)
}

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Processed returns the number of events executed so far; per-packet event
// counts dominate simulation wall-clock time (paper §3.4), so this is the
// scalability-relevant metric. The count is of engine events,
// not of simulated outcomes: a transport timer that is re-armed before it
// fires costs no event (see Timer), where each superseded arm used to pop as
// a no-op closure; and a packet's departure from a device costs an event
// only when it is observed (a transmit hook, a link loss — see
// evTransmitDone), where every departure used to be one. So a run's count
// can drop between versions, or when a hook is removed, with no simulated
// difference — which is why it is outside every digest.
func (s *Simulator) Processed() uint64 { return s.processed }

// Work is what an engine has done since it was made, in counts that depend
// only on the code and its input, not on the host, so a budget on them reads
// the same on any machine. Behind, Heads and Fallbacks split the events the
// network linked through a device's in-flight FIFO (every receive, and the
// transmit completions a hook or loss model observes; queue.go): a head or a
// fallback is inserted into the queue's run or heap, and a link behind a tail
// costs neither. RunPops counts the pops the queue's sorted run served, out
// of the heap's reach. RootPushes counts the inserts of any event that became
// the earliest pending: each leaves unused the prefetch of the record that
// was next.
type Work struct {
	Events     int // events processed (Processed)
	Behind     int // FIFO events linked behind their FIFO's tail, out of the heap and the run
	Heads      int // FIFO events inserted as an empty FIFO's head
	Fallbacks  int // FIFO events that did not follow their FIFO's tail and were inserted as plain events
	RunPops    int // pops the sorted run served
	RootPushes int // inserts that took the queue's minimum
}

// Work returns the engine's counts.
func (s *Simulator) Work() Work {
	q := &s.events
	return Work{Events: int(s.processed), Behind: q.behind, Heads: q.heads, Fallbacks: q.fallbacks, RunPops: q.runPops, RootPushes: q.rootPushes}
}

// Pending returns the number of events currently queued, whether they sit in
// the heap or wait in a device's in-flight FIFO. The event executing is not
// one of them, even while its record carries a packet on to the next hop.
func (s *Simulator) Pending() int { return s.events.len() }

// Schedule enqueues fn to run delay from now. Negative delays panic: they
// indicate a logic bug that would violate causality.
func (s *Simulator) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at %v", delay, s.now))
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt enqueues fn to run at absolute time at (>= Now).
func (s *Simulator) ScheduleAt(at Time, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", at, s.now))
	}
	s.events.push(event{at: at, owner: -1, kind: evClosure, key: s.nextSeq(), fn: fn})
}

// scheduleOwnedAt enqueues a closure on behalf of a node (transport timers
// bound through a Clock). The owner keys the event's canonical order.
func (s *Simulator) scheduleOwnedAt(at Time, owner int32, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", at, s.now))
	}
	s.events.push(event{at: at, owner: owner, kind: evClosure, key: s.nextSeq(), fn: fn})
}

func (s *Simulator) nextSeq() uint64 {
	q := s.seq
	s.seq++
	return q
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events in canonical order until the queue is empty or the
// next event is later than until; the clock then rests exactly at until,
// unless an event called Stop. Calling Run again resumes.
//
// Every steady-state event the loop runs — receives, observed transmit
// completions, installs — executes without touching the heap
// (TestAllocGuardPacketPath). User closures (evClosure) and monitoring hooks
// are the deliberate boundary: the code behind them owns its own allocation
// budget.
func (s *Simulator) Run(until Time) {
	s.stopped = false
	for !s.stopped {
		i, r := s.events.pop(until)
		if r == nil {
			break
		}
		if check.Enabled {
			check.Assert(r.at >= s.now, "event heap popped %v after clock reached %v", r.at, s.now)
		}
		s.now = r.at
		s.processed++
		s.cur = eventKey{at: r.at, owner: r.owner, kind: r.kind, key: r.key}
		s.dispatch(i, r)
	}
	if !s.stopped {
		// Everything up to until has run, whatever its place in the order.
		s.now = max(s.now, until)
		s.cur = eventKey{at: s.now, owner: afterAll}
	}
}

// dispatch executes popped record i. Installs and closures release it before
// they run; a packet event hands it on with its packet, and the network
// releases it where the journey ends.
func (s *Simulator) dispatch(i int32, r *record) {
	switch r.kind {
	case evInstall:
		idx := int(r.key)
		s.events.release(i, r)
		s.net.installEvent(s, idx)
	case evClosure:
		fn := r.fn
		s.events.release(i, r)
		fn()
	case evTransmitDone:
		s.net.transmitDone(s, int32(r.key), i, r)
	case evReceive:
		s.net.receive(s, r.owner, i, r)
	default:
		panic("sim: event kind with no dispatch arm")
	}
}
