//go:build race

package tiling

// raceEnabled reports that the race detector is compiled in: its
// runtime allocates on its own schedule, so exact allocation counts
// are only pinned without it.
const raceEnabled = true
