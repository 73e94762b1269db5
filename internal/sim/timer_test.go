package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// timerClocks returns an engine and one Clock per requested node. A Clock
// needs its Network only to find the engine, so a bare one will do.
func timerClocks(nodes int) (*Simulator, []Clock) {
	s := NewSimulator()
	n := &Network{Sim: s}
	clks := make([]Clock, nodes)
	for i := range clks {
		clks[i] = Clock{net: n, node: int32(i)}
	}
	return s, clks
}

func TestTimerReset(t *testing.T) {
	type step struct {
		at    Time // when to call Reset (absolute)
		delay Time
	}
	for _, tc := range []struct {
		name    string
		steps   []step
		want    []Time // firing times
		pending int    // events queued right after the last step
	}{
		{"once", []step{{0, 10}}, []Time{10}, 1},
		{"later", []step{{0, 10}, {4, 10}, {9, 10}}, []Time{19}, 1},
		{"earlier", []step{{0, 10}, {2, 3}}, []Time{5}, 2},
		{"same instant", []step{{0, 10}, {4, 6}}, []Time{10}, 1},
		{"earlier then later", []step{{0, 10}, {2, 3}, {3, 20}}, []Time{23}, 2},
		{"delay 0", []step{{7, 0}}, []Time{7}, 1},
		{"delay 0 over a pending carrier", []step{{0, 10}, {4, 0}}, []Time{4}, 2},
		{"again after firing", []step{{0, 5}, {8, 5}}, []Time{5, 13}, 1},
		// The carrier the earlier Reset displaced (at 10) is still queued when
		// the timer is armed for that very instant again: one firing, not two.
		{"back onto a displaced carrier", []step{{0, 10}, {1, 2}, {6, 4}}, []Time{3, 10}, 2},
	} {
		s, clks := timerClocks(1)
		var fired []Time
		tm := clks[0].NewTimer(func() { fired = append(fired, s.Now()) })
		for _, st := range tc.steps {
			s.Run(st.at)
			tm.Reset(st.delay)
			if !tm.Armed() {
				t.Errorf("%s: not armed after Reset", tc.name)
			}
		}
		if s.Pending() != tc.pending {
			t.Errorf("%s: %d events queued after the last Reset, want %d", tc.name, s.Pending(), tc.pending)
		}
		s.Run(Second)
		if !slices.Equal(fired, tc.want) {
			t.Errorf("%s: fired at %d ns, want %d", tc.name, fired, tc.want)
		}
		if tm.Armed() || s.Pending() != 0 {
			t.Errorf("%s: armed=%v with %d events left after the run", tc.name, tm.Armed(), s.Pending())
		}
	}
}

func TestTimerResetFromOwnFn(t *testing.T) {
	s, clks := timerClocks(1)
	var fired []Time
	var tm *Timer
	delays := []Time{5, 0, 0, 7} // delay 0 from inside fn fires again on the same nanosecond
	tm = clks[0].NewTimer(func() {
		fired = append(fired, s.Now())
		if tm.Armed() {
			t.Error("armed inside its own fn before re-arming")
		}
		if len(delays) > 0 {
			d := delays[0]
			delays = delays[1:]
			tm.Reset(d)
		}
	})
	tm.Reset(3)
	s.Run(Second)
	if want := []Time{3, 8, 8, 8, 15}; !slices.Equal(fired, want) {
		t.Errorf("fired at %d ns, want %d", fired, want)
	}
	// One event per firing: a periodic timer costs what a closure chain does.
	if s.Processed() != 5 {
		t.Errorf("%d events processed for 5 firings", s.Processed())
	}
}

func TestTimerStop(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stopAt Time // deadline is 10
		want   int
	}{
		{"before the deadline", 4, 0},
		{"at the deadline, ahead of the carrier", 10, 0},
		{"after the deadline", 11, 1},
	} {
		s, clks := timerClocks(1)
		fired := 0
		tm := clks[0].NewTimer(func() { fired++ })
		// Scheduled first, so on nanosecond 10 it runs before the carrier.
		clks[0].Schedule(tc.stopAt, tm.Stop)
		tm.Reset(10)
		s.Run(Second)
		if fired != tc.want || tm.Armed() {
			t.Errorf("Stop %s: fired %d times (want %d), armed=%v", tc.name, fired, tc.want, tm.Armed())
		}
	}

	// Stop, then Reset while the carrier is still queued: the carrier is
	// reused, and the firing is the Reset's.
	s, clks := timerClocks(1)
	var fired []Time
	tm := clks[0].NewTimer(func() { fired = append(fired, s.Now()) })
	tm.Stop() // a never-armed timer stops quietly
	tm.Reset(10)
	s.Run(2)
	tm.Stop()
	s.Run(5)
	tm.Reset(20)
	if s.Pending() != 1 {
		t.Errorf("%d events queued after Stop+Reset, want the one carrier", s.Pending())
	}
	s.Run(Second)
	if want := []Time{25}; !slices.Equal(fired, want) {
		t.Errorf("fired at %d ns after Stop+Reset, want %d", fired, want)
	}
}

// TestTimerTieOrder: timers of one owner due on the same nanosecond fire in
// the order their carriers were scheduled for it. That is arming order unless
// a timer was pushed later onto that instant (its carrier re-schedules itself
// when it pops, after anything armed meanwhile) — the one place a Timer's
// order differs from a fresh closure per arm, whose order is arming order.
func TestTimerTieOrder(t *testing.T) {
	s, clks := timerClocks(1)
	var order []string
	a := clks[0].NewTimer(func() { order = append(order, "a") })
	b := clks[0].NewTimer(func() { order = append(order, "b") })
	b.Reset(10)
	a.Reset(10)
	s.Run(10)
	a.Reset(3) // carrier at 13
	s.Run(11)
	a.Reset(9) // due at 20, carried by the event at 13
	s.Run(12)
	b.Reset(8) // due at 20, armed after a — but its carrier is queued for 20 first
	s.Run(Second)
	if got, want := len(order), 4; got != want {
		t.Fatalf("fired %v", order)
	}
	if order[0] != "b" || order[1] != "a" {
		t.Errorf("tied on 10: fired %v, want b before a (arming order)", order[:2])
	}
	if order[2] != "b" || order[3] != "a" {
		t.Errorf("tied on 20: fired %v, want b before a (carrier order)", order[2:])
	}
}

func TestTimerNegativeDelayPanics(t *testing.T) {
	_, clks := timerClocks(1)
	tm := clks[0].NewTimer(func() {})
	defer func() {
		if recover() == nil {
			t.Error("negative Timer delay did not panic")
		}
	}()
	tm.Reset(-1)
}

// timerFiring is one call of a timer's fn.
type timerFiring struct {
	at    Time
	timer int
}

// driveTimers runs an op stream of Reset / Stop / advance over three timers
// on two owners, and beside each Timer — on the same engine and clock — the
// idiom it replaced: a generation counter and one fresh closure per arm. The
// two must fire at identical (time, timer) pairs (order within a nanosecond
// aside, see TestTimerTieOrder) and agree on Armed, and the queue must hold
// exactly one live carrier per timer that has one plus the carriers an earlier
// Reset displaced that have not popped yet.
//
// An op is two bytes. Byte 0: bits 0-1 pick Reset (0, 1), Stop (2) or advance
// (3), bits 2-3 the timer, bit 4 makes a Reset's firing re-arm its timer once
// from inside fn. Byte 1 mod 16 is the delay or the advance in nanoseconds —
// small, so that instants collide.
func driveTimers(t *testing.T, ops []byte) (fired, displacedTotal int) {
	s, clks := timerClocks(2)
	owner := [3]int{0, 0, 1}
	var (
		timers            [3]*Timer
		displaced         [3][]Time
		got, want         []timerFiring
		gen               [3]uint64
		oracleArmed       [3]bool
		oraclePending     int
		againNew, againOl [3]Time
	)
	resetNew := func(i int, d Time) {
		before := timers[i].carrierAt
		timers[i].Reset(d)
		if before >= 0 && timers[i].carrierAt != before {
			displaced[i] = append(displaced[i], before)
			displacedTotal++
		}
	}
	var resetOld func(i int, d Time)
	resetOld = func(i int, d Time) {
		gen[i]++
		g := gen[i]
		oracleArmed[i] = true
		oraclePending++
		clks[owner[i]].Schedule(d, func() {
			oraclePending--
			if gen[i] != g {
				return
			}
			oracleArmed[i] = false
			want = append(want, timerFiring{s.Now(), i})
			if d := againOl[i]; d >= 0 {
				againOl[i] = -1
				resetOld(i, d)
			}
		})
	}
	for i := range timers {
		i := i
		againNew[i], againOl[i] = -1, -1
		timers[i] = clks[owner[i]].NewTimer(func() {
			got = append(got, timerFiring{s.Now(), i})
			if d := againNew[i]; d >= 0 {
				againNew[i] = -1
				resetNew(i, d)
			}
		})
	}
	verify := func(op int) {
		t.Helper()
		wantPending := oraclePending
		for i, tm := range timers {
			if tm.Armed() != oracleArmed[i] {
				t.Fatalf("op %d: timer %d Armed()=%v, oracle %v", op, i, tm.Armed(), oracleArmed[i])
			}
			if tm.carrierAt >= 0 {
				wantPending++
			}
			// Carriers up to now have popped.
			k := 0
			for _, at := range displaced[i] {
				if at > s.Now() {
					displaced[i][k] = at
					k++
				}
			}
			displaced[i] = displaced[i][:k]
			wantPending += k
		}
		if s.Pending() != wantPending {
			t.Fatalf("op %d at %d ns: %d events queued, want %d (oracle closures + live and displaced carriers)",
				op, s.Now(), s.Pending(), wantPending)
		}
	}
	for op := 0; op+1 < len(ops); op += 2 {
		i := int(ops[op]>>2&3) % 3
		d := Time(ops[op+1] % 16)
		switch ops[op] & 3 {
		case 0, 1:
			againNew[i], againOl[i] = -1, -1
			if ops[op]&16 != 0 {
				againNew[i], againOl[i] = d/2, d/2
			}
			resetNew(i, d)
			resetOld(i, d)
		case 2:
			timers[i].Stop()
			gen[i]++
			oracleArmed[i] = false
		case 3:
			s.Run(s.Now() + d)
		}
		verify(op / 2)
	}
	s.Run(s.Now() + 64)
	verify(len(ops) / 2)
	if s.Pending() != 0 {
		t.Fatalf("%d events left after draining", s.Pending())
	}
	byTimeThenTimer := func(f []timerFiring) {
		sort.SliceStable(f, func(i, j int) bool {
			if f[i].at != f[j].at {
				return f[i].at < f[j].at
			}
			return f[i].timer < f[j].timer
		})
	}
	byTimeThenTimer(got)
	byTimeThenTimer(want)
	if len(got) != len(want) {
		t.Fatalf("%d firings, the closure-per-arm idiom has %d", len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("firing %d: timer %d at %d ns, the closure-per-arm idiom fires timer %d at %d",
				k, got[k].timer, got[k].at, want[k].timer, want[k].at)
		}
	}
	return len(got), displacedTotal
}

func TestTimerMatchesClosurePerArm(t *testing.T) {
	fired, displaced := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*1000)
		rng.Read(ops)
		f, d := driveTimers(t, ops)
		fired += f
		displaced += d
	}
	if fired < 5000 || displaced < 1000 {
		t.Errorf("op streams too tame to trust: %d firings, %d displaced carriers", fired, displaced)
	}
}

// FuzzTimer lets the fuzzer write the op stream of driveTimers.
func FuzzTimer(f *testing.F) {
	f.Add([]byte{})
	// Reset later, later again, advance past both.
	f.Add([]byte{0, 10, 3, 4, 0, 10, 3, 15, 3, 15})
	// Reset earlier, fire, then re-arm onto the displaced carrier's instant.
	f.Add([]byte{0, 10, 3, 1, 0, 2, 3, 5, 0, 4, 3, 15})
	// Stop at the deadline's nanosecond, Reset with delay 0, re-arm from fn.
	f.Add([]byte{4, 5, 3, 5, 6, 0, 4, 0, 20, 6, 3, 15})
	// Two timers of one owner and one of another, all due on one nanosecond.
	f.Add([]byte{0, 9, 4, 9, 8, 9, 3, 3, 0, 6, 3, 15})
	rng := rand.New(rand.NewSource(20201027))
	long := make([]byte, 512)
	rng.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		driveTimers(t, ops)
	})
}
