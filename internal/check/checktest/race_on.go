//go:build race

package checktest

// raceEnabled reports whether the binary was built with -race.
const raceEnabled = true
