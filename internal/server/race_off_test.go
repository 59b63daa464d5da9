//go:build !race

package server

// raceEnabled mirrors race_on_test.go for regular builds.
const raceEnabled = false
