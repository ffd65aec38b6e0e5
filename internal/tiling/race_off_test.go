//go:build !race

package tiling

const raceEnabled = false
