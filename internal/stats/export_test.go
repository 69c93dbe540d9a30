package stats

// The per-observation oracle check, exposed to the external stats_test
// package, whose corpus test needs internal/sim (which imports
// internal/dist, which imports stats).
var CheckMatchesPerObservation = checkMatchesPerObservation
