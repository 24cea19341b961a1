package elastic

// KeepWithTopUp exposes keepWithTopUp to the external benchmarks, which
// calibrate their fleet through the experiments package (itself an
// importer of elastic).
var KeepWithTopUp = keepWithTopUp
