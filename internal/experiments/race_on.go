//go:build race

package experiments

// raceScale stretches experiment control-plane timings (heartbeats,
// leases, kill delays) under the race detector. Race instrumentation
// multiplies the CPU cost of every beat's JSON/HTTP round trip; on a
// small CI machine an 8-worker fleet at a 3ms cadence oversubscribes
// the core, heartbeats queue past the lease, and the master declares
// healthy workers dead in a loop — a livelock of the timing harness,
// not of the system under test. Stretching the cadence keeps the
// same protocol behaviour at a load the instrumented build can carry.
const raceScale = 16
