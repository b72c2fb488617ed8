//go:build race

package policies_test

// raceEnabled mirrors the race detector's build tag so allocation-count
// tests can skip themselves: the race runtime allocates shadow state on
// code the test measures, making AllocsPerRun meaningless under -race.
const raceEnabled = true
