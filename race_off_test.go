//go:build !race

package repro

// raceDetector reports whether the tests were built with -race.
const raceDetector = false
