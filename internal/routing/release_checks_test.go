//go:build hypatia_checks

package routing

import (
	"strings"
	"testing"
)

// TestDoubleReleaseCaught pins the gate on a pooled table's lifecycle (a
// runtime one; no static check tracks Release): releasing the same table
// twice must panic under hypatia_checks, because the second Release would
// append the buffer to the free list again and the pool could then hand it
// to two owners at once.
func TestDoubleReleaseCaught(t *testing.T) {
	var pool TablePool
	ft := pool.take(3, 4, 1)
	ft.Release()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second Release did not panic under hypatia_checks")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "double Release") {
			t.Errorf("panic message %v does not name the double Release", r)
		}
	}()
	ft.Release()
}

// TestDoubleReleaseNilStillSafe pins that the assertion does not break
// Release's nil-safety: a nil receiver stays a silent no-op even with
// checks on.
func TestDoubleReleaseNilStillSafe(t *testing.T) {
	var ft *ForwardingTable
	ft.Release()
	ft.Release()
}
