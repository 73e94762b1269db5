package sim

import (
	"math"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	s := NewSimulator()
	var order []int
	s.Schedule(3*Second, func() { order = append(order, 3) })
	s.Schedule(1*Second, func() { order = append(order, 1) })
	s.Schedule(2*Second, func() { order = append(order, 2) })
	s.Run(10 * Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 10*Second {
		t.Errorf("clock = %v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewSimulator()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(Second, func() { order = append(order, i) })
	}
	s.Run(Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSimulator()
	var times []Time
	var tick func()
	tick = func() {
		times = append(times, s.Now())
		if len(times) < 5 {
			s.Schedule(100*Millisecond, tick)
		}
	}
	s.Schedule(0, tick)
	s.Run(Second)
	if len(times) != 5 {
		t.Fatalf("ticks = %d", len(times))
	}
	for i, at := range times {
		if want := Time(i) * 100 * Millisecond; at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	s := NewSimulator()
	fired := false
	s.Schedule(2*Second, func() { fired = true })
	s.Run(Second)
	if fired {
		t.Error("future event fired early")
	}
	if s.Now() != Second {
		t.Errorf("clock = %v", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
	s.Run(3 * Second)
	if !fired {
		t.Error("event did not fire on resumed run")
	}
}

func TestStop(t *testing.T) {
	s := NewSimulator()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Time(i)*Second, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run(100 * Second)
	if count != 3 {
		t.Errorf("count = %d, want 3 (stopped)", count)
	}
	if s.Now() != 3*Second {
		t.Errorf("clock = %v", s.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewSimulator().Schedule(-1, func() {})
}

func TestScheduleAtPastPanics(t *testing.T) {
	s := NewSimulator()
	s.Schedule(Second, func() { s.ScheduleAt(0, func() {}) })
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	s.Run(2 * Second)
}

// TestDispatchPanicsOnUnknownKind pins dispatch's default arm: an event kind
// added without an arm of its own stops the run instead of being dropped.
func TestDispatchPanicsOnUnknownKind(t *testing.T) {
	s := NewSimulator()
	s.events.push(event{at: Second, owner: -1, kind: evReceive + 1, key: s.nextSeq()})
	defer func() {
		if r := recover(); r != "sim: event kind with no dispatch arm" {
			t.Errorf("recovered %v, want the dispatch panic", r)
		}
	}()
	s.Run(2 * Second)
}

func TestProcessedCount(t *testing.T) {
	s := NewSimulator()
	for i := 0; i < 7; i++ {
		s.Schedule(Time(i), func() {})
	}
	s.Run(Second)
	if s.Processed() != 7 {
		t.Errorf("processed = %d", s.Processed())
	}
}

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Errorf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds() = %v", got)
	}
	if s := (1234 * Millisecond).String(); s != "1.234s" {
		t.Errorf("String = %q", s)
	}
}

// TestSecondsRoundTrip pins the float<->Time bridge: converting a Time to
// seconds and back must reproduce it exactly for representable magnitudes,
// since Seconds() divides by 1e9 and Seconds rounds to the nearest
// nanosecond.
func TestSecondsRoundTrip(t *testing.T) {
	for _, tt := range []Time{
		0, 1, -1, Microsecond, 17 * Millisecond, Second,
		3*Second + 141592653, -2 * Second, 86400 * Second,
	} {
		if got := Seconds(tt.Seconds()); got != tt {
			t.Errorf("Seconds(%v.Seconds()) = %v, want %v", tt, got, tt)
		}
	}
}

// TestSecondsRoundsHalfAwayFromZero pins the rounding rule at the half-
// nanosecond boundary (math.Round rounds half away from zero).
func TestSecondsRoundsHalfAwayFromZero(t *testing.T) {
	cases := []struct {
		s    float64
		want Time
	}{
		{0.5e-9, 1},
		{-0.5e-9, -1},
		{1.5e-9, 2},
		{0.49e-9, 0},
		{-0.49e-9, 0},
		{2.4e-9, 2},
	}
	for _, c := range cases {
		if got := Seconds(c.s); got != c.want {
			t.Errorf("Seconds(%g) = %d ns, want %d ns", c.s, int64(got), int64(c.want))
		}
	}
}

// TestTimeStringNegative pins String formatting for negative durations and
// sub-millisecond rounding behavior.
func TestTimeStringNegative(t *testing.T) {
	if s := (-1500 * Millisecond).String(); s != "-1.500s" {
		t.Errorf("String = %q, want %q", s, "-1.500s")
	}
	if s := (1*Millisecond + 499*Microsecond).String(); s != "0.001s" {
		t.Errorf("String = %q, want %q", s, "0.001s")
	}
}

// TestTimeStringTable exercises String across signs, rounding boundaries,
// and the int64 extremes. Rounding is half away from zero, so negative
// durations format as the exact mirror of their positive counterparts
// (%.3f's round-half-to-even plus float truncation used to render e.g.
// -500µs and 500µs asymmetrically).
func TestTimeStringTable(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0.000s"},
		{Second, "1.000s"},
		{-Second, "-1.000s"},
		{1500 * Millisecond, "1.500s"},
		{-1500 * Millisecond, "-1.500s"},
		{499 * Microsecond, "0.000s"},
		{-499 * Microsecond, "0.000s"}, // rounds to zero: no "-0.000s"
		{500 * Microsecond, "0.001s"},
		{-500 * Microsecond, "-0.001s"},
		{1*Millisecond + 499*Microsecond, "0.001s"},
		{-1*Millisecond - 499*Microsecond, "-0.001s"},
		{1*Millisecond + 500*Microsecond, "0.002s"},
		{-1*Millisecond - 500*Microsecond, "-0.002s"},
		{999_999_999 * Nanosecond, "1.000s"},
		{-999_999_999 * Nanosecond, "-1.000s"},
		{Nanosecond, "0.000s"},
		{-Nanosecond, "0.000s"},
		{200 * Second, "200.000s"},
		{Time(math.MaxInt64), "9223372036.855s"},
		{Time(math.MinInt64), "-9223372036.855s"},
		{Time(math.MinInt64) + 1, "-9223372036.855s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// TestFIFOTieBreakNested verifies the (at, key) ordering of closures, whose
// key is their scheduling sequence, when a handler schedules more work at the
// very instant that is currently executing: the nested zero-delay events must
// run after every event already queued for that timestamp, in the order they
// were scheduled.
func TestFIFOTieBreakNested(t *testing.T) {
	s := NewSimulator()
	var order []string
	s.Schedule(Second, func() {
		order = append(order, "a")
		s.Schedule(0, func() { order = append(order, "a.nested1") })
		s.Schedule(0, func() { order = append(order, "a.nested2") })
	})
	s.Schedule(Second, func() { order = append(order, "b") })
	s.Schedule(Second, func() { order = append(order, "c") })
	s.Run(2 * Second)
	want := []string{"a", "b", "c", "a.nested1", "a.nested2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 2*Second {
		t.Errorf("clock = %v", s.Now())
	}
}
