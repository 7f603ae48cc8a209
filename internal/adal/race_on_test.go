//go:build race

package adal

// raceEnabled reports whether the race detector is instrumenting
// this test binary; allocation-budget assertions are meaningless
// under its shadow allocations.
const raceEnabled = true
