//go:build race

package core

// raceEnabled mirrors the race detector's build tag so allocation tests can
// skip themselves: the race runtime allocates on the code they measure.
const raceEnabled = true
