//go:build race

package queries

// raceEnabled reports whether the race detector is compiled in; the
// allocation ceilings skip under it (it allocates on its own account).
const raceEnabled = true
