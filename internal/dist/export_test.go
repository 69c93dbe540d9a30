package dist

// FitCensoredWeibullPerJob exposes the per-observation oracle to the
// external dist_test package, whose corpus test and benchmark pair need
// internal/sim (which imports dist).
var FitCensoredWeibullPerJob = fitCensoredWeibullPerJob
