package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypatia/internal/experiments"
	"hypatia/internal/sim"
	"hypatia/internal/transport"
)

func TestSlug(t *testing.T) {
	cases := map[string]string{
		"Rio de Janeiro to Saint Petersburg": "rio-de-janeiro-to-saint-petersburg",
		"ABC-123":                            "abc-123",
		"":                                   "",
		"x y/z":                              "x-y-z",
	}
	for in, want := range cases {
		if got := slug(in); got != want {
			t.Errorf("slug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePathStudyTSV(t *testing.T) {
	dir := t.TempDir()
	study := &experiments.PathStudy{
		Name: "test", Step: 0.1,
		ComputedRTT: []float64{0.020, 0.021, 0.022},
		Pings: []transport.PingResult{
			{Seq: 0, SentAt: 0, RTT: 20 * sim.Millisecond, Replied: true},
			{Seq: 1, SentAt: 150 * sim.Millisecond, Replied: false},
			{Seq: 2, SentAt: 10 * sim.Second, RTT: 22 * sim.Millisecond, Replied: true},
		},
	}
	path := filepath.Join(dir, "out.tsv")
	if err := writePathStudyTSV(path, study); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 { // header + 3 pings
		t.Fatalf("lines = %d: %q", len(lines), raw)
	}
	if !strings.HasPrefix(lines[0], "#") {
		t.Error("missing header")
	}
	// Unreplied ping logs RTT 0 (the paper's convention).
	if !strings.Contains(lines[2], "\t0.000000") {
		t.Errorf("unreplied ping line = %q", lines[2])
	}
	// Out-of-range send times clamp to the last computed sample.
	if !strings.Contains(lines[3], "0.022") {
		t.Errorf("clamped line = %q", lines[3])
	}
}

func TestWriteArtifact(t *testing.T) {
	dir := t.TempDir()
	if err := writeArtifact(dir, "a.svg", "<svg/>"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "a.svg"))
	if err != nil || string(raw) != "<svg/>" {
		t.Errorf("artifact contents: %q, %v", raw, err)
	}
	if err := writeArtifact(filepath.Join(dir, "missing-subdir"), "b.svg", "x"); err == nil {
		t.Error("write into missing directory succeeded")
	}
}

// TestWriteArtifactsInNameOrder pins the "wrote" lines to sorted name order
// and skips an empty artifact: a range over the map would print them in
// Go's randomized map order, so two runs' stdout would differ.
func TestWriteArtifactsInNameOrder(t *testing.T) {
	dir := t.TempDir()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = writeArtifacts(dir, map[string]string{
		"fig5c.svg": "c", "fig11-k1.czml": "k", "fig5a.svg": "a", "empty.svg": "", "fig5b.svg": "b",
	})
	os.Stdout = stdout
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	printed, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, name := range []string{"fig11-k1.czml", "fig5a.svg", "fig5b.svg", "fig5c.svg"} {
		want.WriteString("wrote " + filepath.Join(dir, name) + "\n")
	}
	if string(printed) != want.String() {
		t.Errorf("printed:\n%s\nwant:\n%s", printed, want.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "empty.svg")); !os.IsNotExist(err) {
		t.Errorf("empty artifact written: %v", err)
	}
}
