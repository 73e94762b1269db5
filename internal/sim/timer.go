package sim

import "hypatia/internal/check"

// Timer is a re-armable one-shot timer on a node's Clock: the retransmission,
// delayed-ACK and pacing timers of the transports. It calls fn exactly once
// per Reset that no later Reset or Stop supersedes, at exactly Now()+delay of
// that Reset, as a closure event of the clock's node — the same (at, owner,
// kind) a fresh generation-checked closure per arm would fire at — without
// putting an event in the queue per arm.
//
// The timer keeps one live carrier event in the queue. Moving the deadline
// later (every ACK does that to a retransmission timer) schedules nothing: the
// carrier pops at its old time, finds the deadline ahead and re-schedules
// itself for it. Moving the deadline before the carrier schedules a new,
// earlier carrier, and the old one finds on popping that it is not the one the
// timer waits for. Reset and Stop allocate nothing.
//
// A Timer belongs to its node's engine: touch it only from events that engine
// runs — the node's own (the timer's fn, closures on the same Clock, packet
// handlers there) and those of stations colocated with it (a flow's other
// end) — or between runs.
type Timer struct {
	clk     Clock
	fn      func()
	carrier func() // t.pop, bound once so that scheduling it allocates nothing
	// deadline is when fn is due, meaningful while armed. carrierAt is the
	// time of the live carrier, -1 when there is none; an armed timer has one,
	// at or before the deadline.
	deadline  Time
	carrierAt Time
	armed     bool
}

// NewTimer returns a stopped timer that runs fn on the clock's node.
func (c Clock) NewTimer(fn func()) *Timer {
	t := &Timer{clk: c, fn: fn, carrierAt: -1}
	t.carrier = t.pop
	return t
}

// Reset arms the timer to fire delay from now, replacing any earlier
// deadline. Negative delays panic, as on Clock.Schedule.
func (t *Timer) Reset(delay Time) {
	t.deadline = t.clk.Now() + delay
	t.armed = true
	if t.carrierAt < 0 || t.deadline < t.carrierAt {
		t.clk.Schedule(delay, t.carrier) // a negative delay always lands here
		t.carrierAt = t.deadline
	}
}

// Stop disarms the timer: fn does not run until the next Reset. The carrier
// stays queued for that Reset to reuse, and pops as a no-op otherwise.
func (t *Timer) Stop() { t.armed = false }

// Armed reports whether a Reset is waiting to fire.
func (t *Timer) Armed() bool { return t.armed }

// pop is the carrier event.
func (t *Timer) pop() {
	now := t.clk.Now()
	if now != t.carrierAt {
		return // superseded by an earlier carrier
	}
	t.carrierAt = -1
	if !t.armed {
		return
	}
	if check.Enabled {
		check.Assert(t.deadline >= now, "timer carrier popped at %v, after its deadline %v", now, t.deadline)
	}
	if t.deadline > now {
		t.clk.Schedule(t.deadline-now, t.carrier)
		t.carrierAt = t.deadline
		return
	}
	t.armed = false
	t.fn()
}
