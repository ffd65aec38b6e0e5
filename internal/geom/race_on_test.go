//go:build race

package geom

// raceEnabled reports that the race detector is compiled in: its
// runtime allocates on its own schedule and sync.Pool drops some of
// what is put back, so exact allocation counts are only pinned without
// it.
const raceEnabled = true
