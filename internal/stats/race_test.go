//go:build race

package stats

// raceEnabled reports that the race detector is on. Its sync.Pool drops a
// random share of Puts, so allocation counts through a pool vary.
const raceEnabled = true
