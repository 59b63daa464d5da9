//go:build race

package server

// raceEnabled reports that this test binary was built with the race
// detector, under which planning a dense random demand on C_1023 runs
// about tenfold slower — too close to the 30 s production plan timeout
// that TestPlanRandomAtRingSizeLimit pins.
const raceEnabled = true
