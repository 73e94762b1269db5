package transport

import (
	"sort"
	"testing"

	"hypatia/internal/sim"
)

// mapBoard is the sequence state TCPFlow kept before its rings: four maps on
// the sender and one on the receiver, each method the former code of the
// step it names. FuzzTCPScoreboard drives it beside the rings as their
// oracle.
type mapBoard struct {
	sndUna, highSack int64
	sentAt           map[int64]sim.Time
	everRetx         map[int64]bool
	sacked           map[int64]bool
	sackRetx         map[int64]bool

	rcvNxt int64
	ooo    map[int64]bool
}

func newMapBoard() *mapBoard {
	return &mapBoard{
		sentAt: map[int64]sim.Time{}, everRetx: map[int64]bool{},
		sacked: map[int64]bool{}, sackRetx: map[int64]bool{}, ooo: map[int64]bool{},
	}
}

func (m *mapBoard) recordSend(seq int64, retx bool, now sim.Time) bool {
	if _, dup := m.sentAt[seq]; dup || retx {
		m.everRetx[seq] = true
		return true
	}
	m.sentAt[seq] = now
	return false
}

func (m *mapBoard) karnSample(ack int64, now sim.Time) (sim.Time, bool) {
	for seq := ack - 1; seq >= m.sndUna; seq-- {
		t0, ok := m.sentAt[seq]
		if ok && !m.everRetx[seq] {
			return now - t0, true
		}
		if ok {
			break
		}
	}
	return 0, false
}

func (m *mapBoard) ack(ack int64) {
	for seq := m.sndUna; seq < ack; seq++ {
		delete(m.sentAt, seq)
		delete(m.everRetx, seq)
		delete(m.sacked, seq)
		delete(m.sackRetx, seq)
	}
	m.sndUna = ack
}

func (m *mapBoard) processSACK(blocks [][2]int64) {
	for _, b := range blocks {
		for s := b[0]; s < b[1]; s++ {
			if s >= m.sndUna && !m.sacked[s] {
				m.sacked[s] = true
				if s+1 > m.highSack {
					m.highSack = s + 1
				}
			}
		}
	}
}

func (m *mapBoard) nextHole() (int64, bool) {
	for s := m.sndUna; s < m.highSack; s++ {
		if m.sacked[s] || m.sackRetx[s] {
			continue
		}
		m.sackRetx[s] = true
		return s, true
	}
	return 0, false
}

func (m *mapBoard) enterRecovery() {
	m.sackRetx = map[int64]bool{}
	m.sackRetx[m.sndUna] = true
}

func (m *mapBoard) timeout() { m.sackRetx = map[int64]bool{} }

func (m *mapBoard) accept(seq int64) bool {
	switch {
	case seq == m.rcvNxt:
		m.rcvNxt++
		for m.ooo[m.rcvNxt] {
			delete(m.ooo, m.rcvNxt)
			m.rcvNxt++
		}
		return true
	case seq > m.rcvNxt:
		m.ooo[seq] = true
	}
	return false
}

func (m *mapBoard) sackBlocks() [][2]int64 {
	seqs := make([]int64, 0, len(m.ooo))
	for s := range m.ooo {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	var blocks [][2]int64
	for _, s := range seqs {
		if len(blocks) > 0 && blocks[len(blocks)-1][1] == s {
			blocks[len(blocks)-1][1] = s + 1
			continue
		}
		if len(blocks) == 4 {
			break
		}
		blocks = append(blocks, [2]int64{s, s + 1})
	}
	return blocks
}

// ahead maps two fuzz bytes to a sequence offset: mostly within a window or
// two, and with the high bit of b set up to ~1 000 segments out, far enough
// to force either ring to double several times.
func ahead(a, b byte) int64 {
	if b&0x80 != 0 {
		return int64(a) + int64(b&0x03)<<8
	}
	return int64(a) % 48
}

// burst maps two fuzz bytes to a run of sequence numbers [lo, lo+n) from
// base: with bit 6 of b set, a window's worth (up to 64) starting a little
// above base, so the rings slide and grow with segments on both sides of a
// power-of-two boundary; otherwise the single segment base+ahead(a, b).
func burst(base int64, a, b byte) (lo, n int64) {
	if b&0x40 != 0 {
		return base + int64(b&0x0f), int64(a%64) + 1
	}
	return base + ahead(a, b), 1
}

// maxScoreboardSteps bounds one fuzz input, each step of which compares
// every segment up to the highest touched.
const maxScoreboardSteps = 256

// FuzzTCPScoreboard drives a bare TCPFlow's scoreboard and receive rings and
// the map oracle with one stream of the steps the flow takes — first sends
// and retransmissions, cumulative ACKs with their RTT sample, SACK blocks,
// recovery entries, timeouts, hole repairs, and receiver arrivals (in order,
// duplicates, out of order, far ahead) — and after every step compares each
// read the flow makes: every flag and first-send time from below sndUna to
// past the highest segment touched, Karn's sample, the hole found, the
// receiver's rcvNxt, held set and SACK blocks.
func FuzzTCPScoreboard(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 2, 1, 0, 7, 0, 0, 7, 3, 0, 7, 1, 0})
	f.Add([]byte{0, 5, 0, 0, 9, 0, 1, 5, 0, 3, 2, 2, 3, 8, 1, 4, 0, 0, 6, 0, 0, 6, 0, 0, 2, 4, 0, 5, 0, 0})
	f.Add([]byte{0, 200, 0x83, 0, 10, 0, 3, 150, 0x82, 2, 40, 0, 7, 90, 0x85, 7, 2, 0, 7, 0, 0, 7, 1, 0})
	f.Add([]byte{7, 3, 0, 7, 3, 0, 7, 64, 0x81, 7, 65, 0x81, 7, 0, 0, 7, 1, 0, 7, 2, 0, 7, 4, 0})
	// Bursts that move both rings past a power-of-two boundary, then a far
	// write that doubles each with segments on the moving side.
	f.Add([]byte{0, 63, 0x40, 2, 20, 0, 0, 63, 0x4f, 0, 255, 0x83, 2, 3, 0,
		7, 63, 0x42, 7, 40, 0x45, 7, 200, 0x83, 7, 0, 0x62, 7, 2, 0})
	f.Fuzz(runScoreboardOps)
}

// runScoreboardOps is FuzzTCPScoreboard's body: three bytes per step, an op
// and two arguments.
func runScoreboardOps(t *testing.T, ops []byte) {
	ring, oracle := &TCPFlow{}, newMapBoard()
	var now sim.Time
	hi := int64(0) // one past the highest sender segment touched
	rcvHi := int64(0)
	for i := 0; i+2 < len(ops) && i < 3*maxScoreboardSteps; i += 3 {
		op, a, b := ops[i]%8, ops[i+1], ops[i+2]
		now += sim.Time(a) * sim.Microsecond
		una := ring.sndUna
		switch op {
		case 0, 1: // a send, or a window's burst; op 1 is an explicit retransmission
			lo, n := burst(una, a, b)
			for seq := lo; seq < lo+n; seq++ {
				got, want := ring.recordSend(seq, op == 1, now), oracle.recordSend(seq, op == 1, now)
				if got != want {
					t.Fatalf("step %d: send of %d (retx=%v) counted as retransmission %v, oracle %v", i/3, seq, op == 1, got, want)
				}
			}
			hi = max(hi, lo+n)
		case 2: // a cumulative ACK and its RTT sample
			ack := una + 1 + ahead(a, b)
			hi = max(hi, ack)
			gotRTT, gotOK := ring.karnSample(ack, now)
			wantRTT, wantOK := oracle.karnSample(ack, now)
			if gotOK != wantOK || (gotOK && gotRTT != wantRTT) {
				t.Fatalf("step %d: ACK %d samples (%v, %v), oracle (%v, %v)", i/3, ack, gotRTT, gotOK, wantRTT, wantOK)
			}
			ring.snd.advance(ring.sndUna, ack)
			ring.sndUna = ack
			oracle.ack(ack)
		case 3: // SACK blocks, possibly reaching below sndUna
			lo := una - 2 + ahead(a, b)
			blocks := [][2]int64{{lo, lo + 1 + int64(b%5)}, {lo + int64(a%7) + 3, lo + int64(a%7) + 5}}
			hi = max(hi, blocks[1][1])
			ring.processSACK(blocks)
			oracle.processSACK(blocks)
			if ring.highSack != oracle.highSack {
				t.Fatalf("step %d: highSack %d, oracle %d", i/3, ring.highSack, oracle.highSack)
			}
		case 4: // a SACK recovery begins
			ring.snd.clear(segSackRetx)
			ring.snd.slot(una, una).flags |= segSackRetx
			oracle.enterRecovery()
			hi = max(hi, una+1)
		case 5: // a retransmission timeout
			ring.snd.clear(segSackRetx)
			oracle.timeout()
		case 6: // a SACK hole repair
			gotS, gotOK := ring.nextHole()
			wantS, wantOK := oracle.nextHole()
			if gotOK != wantOK || gotS != wantS {
				t.Fatalf("step %d: next hole (%d, %v), oracle (%d, %v)", i/3, gotS, gotOK, wantS, wantOK)
			}
		case 7: // data segments reach the receiver: one, or a burst, from a
			// little below rcvNxt (duplicates) up; a burst lands in
			// descending order when b's bit 5 is set
			lo, n := burst(ring.rcvNxt-2, a, b)
			for k := int64(0); k < n; k++ {
				seq := lo + k
				if b&0x20 != 0 {
					seq = lo + n - 1 - k
				}
				if got, want := ring.accept(seq), oracle.accept(seq); got != want {
					t.Fatalf("step %d: arrival of %d in order %v, oracle %v", i/3, seq, got, want)
				}
			}
			rcvHi = max(rcvHi, lo+n)
		}
		compareScoreboards(t, i/3, ring, oracle, hi, rcvHi)
	}
}

// compareScoreboards checks every read of the rings against the oracle.
func compareScoreboards(t *testing.T, step int, ring *TCPFlow, m *mapBoard, hi, rcvHi int64) {
	t.Helper()
	if ring.sndUna != m.sndUna || ring.rcvNxt != m.rcvNxt {
		t.Fatalf("step %d: sndUna %d rcvNxt %d, oracle %d %d", step, ring.sndUna, ring.rcvNxt, m.sndUna, m.rcvNxt)
	}
	for s := m.sndUna - 3; s < hi+3; s++ {
		sl := ring.snd.at(ring.sndUna, s)
		t0, sent := m.sentAt[s]
		if got := sl.flags&segSent != 0; got != sent || (sent && sl.sentAt != t0) {
			t.Fatalf("step %d: segment %d sent %v at %v, oracle %v at %v", step, s, got, sl.sentAt, sent, t0)
		}
		for _, c := range []struct {
			flag uint8
			want bool
			name string
		}{{segRetx, m.everRetx[s], "retransmitted"}, {segSacked, m.sacked[s], "sacked"}, {segSackRetx, m.sackRetx[s], "repaired"}} {
			if got := sl.flags&c.flag != 0; got != c.want {
				t.Fatalf("step %d: segment %d %s %v, oracle %v", step, s, c.name, got, c.want)
			}
		}
	}
	if ring.ooo.n != len(m.ooo) {
		t.Fatalf("step %d: receiver holds %d out of order, oracle %d", step, ring.ooo.n, len(m.ooo))
	}
	for s := m.rcvNxt - 3; s < rcvHi+3; s++ {
		if got := ring.ooo.has(ring.rcvNxt, s); got != m.ooo[s] {
			t.Fatalf("step %d: receiver holds %d: %v, oracle %v", step, s, got, m.ooo[s])
		}
	}
	if got, want := ring.sackBlocks(), m.sackBlocks(); !equalBlocks(got, want) {
		t.Fatalf("step %d: SACK blocks %v, oracle %v", step, got, want)
	}
}

func equalBlocks(a, b [][2]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScoreboardRingsGrowInPlace: a write far beyond either ring's span
// doubles it without moving or losing what it holds.
func TestScoreboardRingsGrowInPlace(t *testing.T) {
	f := &TCPFlow{sndUna: 5, rcvNxt: 5}
	for _, s := range []int64{5, 12, 20} {
		f.recordSend(s, false, sim.Time(s))
		f.accept(s + 1)
	}
	f.recordSend(12, false, 99) // a second send of 12: a retransmission
	f.recordSend(5000, false, 7)
	f.accept(5000)
	if n := len(f.snd.slots); n != 8192 {
		t.Errorf("scoreboard holds %d slots after a write 4 995 ahead, want 8192", n)
	}
	if n := 64 * len(f.ooo.words); n != 8192 {
		t.Errorf("receive ring spans %d segments after an arrival 4 995 ahead, want 8192", n)
	}
	for _, c := range []struct {
		s     int64
		at    sim.Time
		flags uint8
	}{{5, 5, segSent}, {12, 12, segSent | segRetx}, {20, 20, segSent}, {5000, 7, segSent}, {13, 0, 0}} {
		if sl := f.snd.at(f.sndUna, c.s); sl.sentAt != c.at || sl.flags != c.flags {
			t.Errorf("segment %d: %+v after growth, want sent at %v flags %#x", c.s, sl, c.at, c.flags)
		}
	}
	// The receiver got 6, 13, 21 and 5000 while expecting 5.
	if f.rcvNxt != 5 || f.ooo.n != 4 {
		t.Fatalf("receiver rcvNxt %d holding %d, want 5 holding 4", f.rcvNxt, f.ooo.n)
	}
	if got, want := f.sackBlocks(), [][2]int64{{6, 7}, {13, 14}, {21, 22}, {5000, 5001}}; !equalBlocks(got, want) {
		t.Errorf("SACK blocks %v after growth, want %v", got, want)
	}
	f.accept(5)
	if f.rcvNxt != 7 || f.ooo.n != 3 {
		t.Errorf("after 5 arrives: rcvNxt %d holding %d, want 7 holding 3", f.rcvNxt, f.ooo.n)
	}
}
