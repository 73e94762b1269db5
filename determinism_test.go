package hypatia

import (
	"fmt"
	"strings"
	"testing"
)

// tcpScenario builds and executes a fixed end-to-end scenario — Kuiper shell,
// top-100 cities, one TCP flow with a packet tracer attached — and returns a
// digest of everything observable: the event count, the flow's transfer and
// loss-recovery statistics, and the raw trace bytes.
func tcpScenario(t *testing.T) (processed uint64, flowStats string, traceBytes string) {
	t.Helper()
	run, err := NewRun(RunConfig{
		Constellation:  Kuiper(),
		GroundStations: Top100Cities(),
		Duration:       Seconds(2),
		ActiveDstGS:    []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	tr := NewTracer(&buf)
	tr.Attach(run.Net)
	flow := NewTCPFlow(run.Net, run.Flows, 0, 1, TCPConfig{RecordLogs: true})
	flow.Start()
	run.Execute()
	if err := tr.Detach(); err != nil {
		t.Fatal(err)
	}
	stats := fmt.Sprintf("acked=%d acks=%d retx=%d timeouts=%d fastretx=%d cwndlog=%d",
		flow.AckedSegments, flow.AcksReceived, flow.RetxCount,
		flow.TimeoutCount, flow.FastRetxCount, len(flow.CwndLog.Samples))
	return run.Sim.Processed(), stats, buf.String()
}

// TestDeterministicReplay is the determinism regression test: the same
// scenario executed twice within one process must be bit-for-bit identical —
// same event count, same flow statistics, and a byte-identical packet trace.
// Any nondeterminism (map-order iteration feeding the scheduler, wall-clock
// reads, unseeded randomness) shows up here as a diff.
func TestDeterministicReplay(t *testing.T) {
	p1, s1, tr1 := tcpScenario(t)
	p2, s2, tr2 := tcpScenario(t)
	if p1 != p2 {
		t.Errorf("processed events differ across replays: %d vs %d", p1, p2)
	}
	if s1 != s2 {
		t.Errorf("flow stats differ across replays:\n  run 1: %s\n  run 2: %s", s1, s2)
	}
	if p1 == 0 || len(tr1) == 0 {
		t.Fatalf("scenario produced no activity (processed=%d, trace=%d bytes)", p1, len(tr1))
	}
	if tr1 != tr2 {
		i := 0
		for i < len(tr1) && i < len(tr2) && tr1[i] == tr2[i] {
			i++
		}
		lo := max(0, i-80)
		t.Errorf("packet traces diverge at byte %d:\n  run 1: ...%q\n  run 2: ...%q",
			i, tr1[lo:min(len(tr1), i+80)], tr2[lo:min(len(tr2), i+80)])
	}
}
