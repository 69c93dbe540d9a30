package dist

// The per-observation and per-point oracles, exposed to the external
// dist_test package, whose corpus tests and benchmark pairs need
// internal/sim and internal/core (which import dist).
var (
	FitCensoredWeibullPerJob = fitCensoredWeibullPerJob
	KSStatisticPerPoint      = ksStatisticPerPoint
	ADStatisticPerPoint      = adStatisticPerPoint
	KSPolishFullScan         = ksPolishFullScan
)
