// Package exhaustive is a hypatialint fixture for the exhaustive check: a
// tag switch that misses a constant with no default, alongside the two
// shapes that must stay clean.
package exhaustive

// kind is the event tag; every switch over it must cover all constants or
// carry a default.
//
//hypatia:exhaustive
type kind uint8

const (
	kSend kind = iota
	kRecv
	kDrop
)

// dispatch seeds the fixture bug: the switch misses kDrop and has no
// default, so a new event kind would fall through silently.
func dispatch(k kind) int32 {
	switch k { // want exhaustive
	case kSend:
		return 1
	case kRecv:
		return 2
	}
	return 0
}

// dispatchAll covers every constant; no finding.
func dispatchAll(k kind) int32 {
	switch k {
	case kSend, kRecv, kDrop:
		return 1
	}
	return 0
}

// dispatchDefault relies on its default arm; no finding.
func dispatchDefault(k kind) int32 {
	switch k {
	case kSend:
		return 1
	default:
		return 0
	}
}
