//go:build !race

package sparse

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
