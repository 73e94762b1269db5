package sim

import "testing"

// TestClockSerialEquivalence pins that Clock handles, and Timers on them,
// behave exactly like the simulator's own Schedule and Now.
func TestClockSerialEquivalence(t *testing.T) {
	_, n, _ := testNet(t, Config{})
	clk := n.Clock(0)
	if clk.Now() != n.Sim.Now() {
		t.Fatalf("Clock.Now = %v, Sim.Now = %v", clk.Now(), n.Sim.Now())
	}
	var at, timerAt Time
	clk.Schedule(7*Millisecond, func() { at = clk.Now() })
	clk.NewTimer(func() { timerAt = n.Sim.Now() }).Reset(9 * Millisecond)
	n.Sim.Run(Second)
	if at != 7*Millisecond {
		t.Errorf("clock-scheduled event ran at %v, want 7ms", at)
	}
	if timerAt != 9*Millisecond {
		t.Errorf("clock timer fired at %v, want 9ms", timerAt)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Clock delay did not panic")
		}
	}()
	clk.Schedule(-1, func() {})
}
