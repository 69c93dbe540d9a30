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
	c := &e.cache
	c.profileOnce.Do(func() { c.profile, c.profileErr = e.D.FusedScan(e.Parallelism) })
	return c.profile, c.profileErr
}

// Concentration returns the concentration/correlation profile for the
// grouping (E2/E7), computed once per environment and grouping.
func (e *Env) Concentration(by core.GroupBy) (*core.ConcentrationResult, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return nil, err
	}
	c := &e.cache
	if by == core.ByProject {
		c.concProjOnce.Do(func() { c.concProj, c.concProjErr = p.Concentration(by) })
		return c.concProj, c.concProjErr
	}
	c.concUserOnce.Do(func() { c.concUser, c.concUserErr = p.Concentration(by) })
	return c.concUser, c.concUserErr
}

// FatalIncidents returns the default-rule filtered FATAL incident stream,
// computed once per environment (E16/E21 share it).
func (e *Env) FatalIncidents() (core.Incidents, error) {
	c := &e.cache
	c.fatalIncOnce.Do(func() { c.fatalInc, c.fatalIncErr = e.D.FilterFatal(core.DefaultFilterRule()) })
	return c.fatalInc, c.fatalIncErr
}

// WarnIncidents returns the default-rule filtered WARN burst stream,
// computed once per environment (E16).
func (e *Env) WarnIncidents() (core.Incidents, error) {
	c := &e.cache
	c.warnIncOnce.Do(func() { c.warnInc, c.warnIncErr = e.D.FilterWarn(core.DefaultFilterRule()) })
	return c.warnInc, c.warnIncErr
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
