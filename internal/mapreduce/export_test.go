package mapreduce

// CheckGolden lets the external test package (golden_shapes_test.go,
// which imports internal/workloads) compare against the same digests.
var CheckGolden = checkGolden

// SetRunLimit changes what a run may account for before the collector
// cuts it — math.MaxUint32 outside tests — until the returned function
// puts it back.
func SetRunLimit(n int64) (restore func()) {
	old := runLimit
	runLimit = n
	return func() { runLimit = old }
}
