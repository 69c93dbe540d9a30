package experiments

import (
	"time"

	"repro/internal/core"
)

// This file is the experiments-side face of the fused scan engine. The hot
// whole-corpus aggregates (E1/E2/E4/E7/E9/E10/E14/E15/E19) are the fields
// of one shared core.FusedScan profile, which the experiments read
// directly; its fields are compared with their reference walks in core's
// fused_test.go. The accessors here memoize what is layered on the
// profile and on the incident and MTTI passes (E2/E7/E16/E18/E21);
// fused_test.go in this package compares each with a fresh walk.

// fusedProfile returns the shared scan profile, running the scan once per
// environment no matter how many experiments (or workers) request it.
func (e *Env) fusedProfile() (*core.FusedProfile, error) {
	return e.cache.profile.Get(func() (*core.FusedProfile, error) { return e.D.FusedScan(e.Parallelism) })
}

// Concentration returns the concentration/correlation profile for the
// grouping (E2/E7), computed once per environment and grouping; by is
// core.ByUser or core.ByProject.
func (e *Env) Concentration(by core.GroupBy) (*core.ConcentrationResult, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return nil, err
	}
	return e.cache.conc[by-core.ByUser].Get(func() (*core.ConcentrationResult, error) { return p.Concentration(by) })
}

// FatalIncidents returns the default-rule filtered FATAL incident stream,
// computed once per environment (E16/E21 share it).
func (e *Env) FatalIncidents() (core.Incidents, error) {
	return e.cache.fatalInc.Get(func() (core.Incidents, error) { return e.D.FilterFatal(core.DefaultFilterRule()) })
}

// WarnIncidents returns the default-rule filtered WARN burst stream,
// computed once per environment (E16).
func (e *Env) WarnIncidents() (core.Incidents, error) {
	return e.cache.warnInc.Get(func() (core.Incidents, error) { return e.D.FilterWarn(core.DefaultFilterRule()) })
}

// LeadTimes evaluates the WARN→FATAL precursor analysis for several
// lookbacks (E16). The filtering and location indexing happen once, via
// the memoized incident streams and Dataset.LeadTimeSweep.
func (e *Env) LeadTimes(lookbacks []time.Duration) ([]*core.LeadTimeResult, error) {
	opts := make([]core.LeadTimeOptions, len(lookbacks))
	for i, lb := range lookbacks {
		opt := core.DefaultLeadTimeOptions()
		opt.Lookback = lb
		opts[i] = opt
	}
	fatals, err := e.FatalIncidents()
	if err != nil {
		return nil, err
	}
	warns, err := e.WarnIncidents()
	if err != nil {
		return nil, err
	}
	return e.D.LeadTimeSweep(fatals, warns, opts)
}

// LifePhases returns the n-phase reliability trajectory (E18), reusing the
// memoized default-rule MTTI.
func (e *Env) LifePhases(n int) ([]core.LifePhase, error) {
	mtti, err := e.MTTI()
	if err != nil {
		return nil, err
	}
	return e.D.LifePhasesFromMTTI(n, mtti)
}

// SpatialCorr returns the torus spatial-correlation result for one time
// window (E21), reusing the memoized incident stream.
func (e *Env) SpatialCorr(window time.Duration) (*core.SpatialCorrResult, error) {
	incidents, err := e.FatalIncidents()
	if err != nil {
		return nil, err
	}
	return e.D.SpatialCorrelationIncidents(incidents, window)
}
