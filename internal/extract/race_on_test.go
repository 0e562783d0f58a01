//go:build race

package extract

// raceEnabled reports whether the race detector is compiled in; the
// allocation tests skip under it (it allocates on its own account).
const raceEnabled = true
