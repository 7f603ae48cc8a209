package mapreduce

// CheckGolden lets the external test package (golden_shapes_test.go,
// which imports internal/workloads) compare against the same digests.
var CheckGolden = checkGolden
