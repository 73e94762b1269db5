package sim

// prefetch asks the CPU to bring both 64-byte cache lines of record r into
// cache, without waiting for them: the queue fields on the first, the packet
// on the second (records are 128-byte aligned, TestPageElementsFillWholePages).
// Go has no prefetch a package can call, so this is two PREFETCHT0
// instructions in prefetch_amd64.s; other architectures build a no-op.
//
//go:noescape
func prefetch(r *record)
