//go:build !race

package core

// raceEnabled is false without the race detector; see race_enabled_test.go.
const raceEnabled = false
