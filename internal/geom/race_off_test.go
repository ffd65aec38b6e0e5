//go:build !race

package geom

const raceEnabled = false
