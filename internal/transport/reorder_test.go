package transport

import (
	"testing"

	"hypatia/internal/geom"
	"hypatia/internal/sim"
)

func TestAnalyzeReorderingInOrder(t *testing.T) {
	st := AnalyzeReordering([]int64{0, 1, 2, 3, 4})
	if st.Total != 5 || st.Reordered != 0 || st.Events != 0 || st.MaxDisplacement != 0 {
		t.Errorf("in-order stats: %+v", st)
	}
	if st.ReorderedFraction() != 0 {
		t.Errorf("fraction = %v", st.ReorderedFraction())
	}
}

func TestAnalyzeReorderingSimple(t *testing.T) {
	// 3 overtaken by 4 and 5: arrivals 0 1 2 4 5 3.
	st := AnalyzeReordering([]int64{0, 1, 2, 4, 5, 3})
	if st.Reordered != 1 {
		t.Errorf("reordered = %d", st.Reordered)
	}
	if st.MaxDisplacement != 2 {
		t.Errorf("displacement = %d", st.MaxDisplacement)
	}
	if st.Events != 1 {
		t.Errorf("events = %d", st.Events)
	}
}

func TestAnalyzeReorderingEventGrouping(t *testing.T) {
	// One path change displaces a whole window: 5 6 7 0 1 2 8 9 then a
	// second event 11 10.
	st := AnalyzeReordering([]int64{5, 6, 7, 0, 1, 2, 8, 9, 11, 10})
	if st.Reordered != 4 {
		t.Errorf("reordered = %d", st.Reordered)
	}
	if st.Events != 2 {
		t.Errorf("events = %d", st.Events)
	}
	if st.MaxDisplacement != 7 {
		t.Errorf("displacement = %d", st.MaxDisplacement)
	}
}

func TestAnalyzeReorderingDuplicates(t *testing.T) {
	st := AnalyzeReordering([]int64{0, 1, 1, 2, 0})
	if st.Reordered != 0 {
		t.Errorf("duplicates counted as reordering: %+v", st)
	}
	if st.Total != 5 {
		t.Errorf("total = %d", st.Total)
	}
	if st.ReorderedFraction() != 0 {
		t.Errorf("fraction = %v", st.ReorderedFraction())
	}
}

func TestAnalyzeReorderingEmpty(t *testing.T) {
	st := AnalyzeReordering(nil)
	if st.Total != 0 || st.ReorderedFraction() != 0 {
		t.Errorf("empty stats: %+v", st)
	}
}

func TestTCPTracksReorderingOnPathShortening(t *testing.T) {
	// End to end: the SatB drop at t=5 s shortens the path and must show
	// up as a reordering event in the receiver's arrival log.
	after := satAbove(0, 15, 600e3)
	d := newDumbbell(t, sim.DefaultConfig(), after, 5)
	f := NewTCPFlow(d.net, d.ids, 0, 1, TCPConfig{RecordLogs: true})
	f.Start()
	d.sim.Run(10 * sim.Second)
	st := AnalyzeReordering(f.ArrivalLog)
	if st.Total == 0 {
		t.Fatal("no arrivals logged")
	}
	if st.Reordered == 0 {
		t.Error("path shortening produced no observed reordering")
	}
	if st.Events == 0 || st.MaxDisplacement == 0 {
		t.Errorf("stats: %+v", st)
	}
	// Without RecordLogs all four logs stay empty and the counters still run.
	d2 := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	f2 := NewTCPFlow(d2.net, d2.ids, 0, 1, TCPConfig{})
	f2.Start()
	d2.sim.Run(sim.Second)
	if len(f2.ArrivalLog) != 0 || f2.CwndLog.Len() != 0 || f2.RTTLog.Len() != 0 || f2.AckedLog.Len() != 0 {
		t.Errorf("logs populated without RecordLogs: arrivals %d, cwnd %d, rtt %d, acked %d",
			len(f2.ArrivalLog), f2.CwndLog.Len(), f2.RTTLog.Len(), f2.AckedLog.Len())
	}
	if f2.AckedSegments == 0 {
		t.Error("no segments acknowledged")
	}
}
