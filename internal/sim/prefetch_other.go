//go:build !amd64

package sim

// prefetch is a no-op off amd64: see prefetch_amd64.go.
func prefetch(r *record) {}
