//go:build race

package construct

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool deliberately drops Put values — the
// warm-patch allocation pin is skipped there (its greedy, redundancy and
// cover.Verify steps ride pooled scratch, which legitimately
// re-allocates under race) — and the slowest size sweeps are too.
const raceEnabled = true
