//go:build !race

package experiments

// raceScale is 1 in normal builds; see race_on.go.
const raceScale = 1
