//go:build !race

package adal

const raceEnabled = false
