package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/machine"
)

// This file is the experiments-side face of the fused scan engine: every
// accessor serves the hot whole-corpus aggregates (E1/E2/E4/E7/E9/E10/E14/
// E15/E16/E18/E19/E21) from one shared core.FusedScan and the memoized
// incident and MTTI passes. The pre-fusion per-experiment walks survive in
// fused_test.go as oracles; the equivalence table there compares every
// accessor with its walk bit for bit.

// fusedProfile returns the shared scan profile, running the scan once per
// environment no matter how many experiments (or workers) request it.
func (e *Env) fusedProfile() (*core.FusedProfile, error) {
	c := &e.cache
	c.profileOnce.Do(func() { c.profile, c.profileErr = e.D.FusedScan(e.Parallelism) })
	return c.profile, c.profileErr
}

// Summary returns the Table-I dataset summary (E1).
func (e *Env) Summary() (core.Summary, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return core.Summary{}, err
	}
	return p.Summary, nil
}

// ExitTally returns the exit-status-only failure tally (E4/E19 and the
// family tables).
func (e *Env) ExitTally() (core.FailTally, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return core.FailTally{}, err
	}
	return p.Exit, nil
}

// JointTally returns the RAS-correlated failure tally under
// core.DefaultJointOptions (E4).
func (e *Env) JointTally() (core.FailTally, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return core.FailTally{}, err
	}
	return p.Joint, nil
}

// Groups returns the per-user or per-project aggregates in Aggregate order
// (E2/E7), with system attribution from the exit-status classification.
func (e *Env) Groups(by core.GroupBy) ([]core.GroupStats, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return nil, err
	}
	return p.Groups(by), nil
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

// Temporal returns the hour/weekday/month activity profile (E14).
func (e *Env) Temporal() (*core.TemporalProfile, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return nil, err
	}
	return p.Temporal, nil
}

// RASProfile returns the severity/category/component composition (E9).
func (e *Env) RASProfile() (*core.CategoryProfile, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return nil, err
	}
	return p.RAS, nil
}

// Waste returns the wasted core-hours breakdown under the exit-status
// classification (E19).
func (e *Env) Waste() (*core.WasteResult, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return nil, err
	}
	return p.Waste, nil
}

// Interrupts returns the interruptions-vs-consumption correlation (E15).
func (e *Env) Interrupts() (*core.InterruptCorrelation, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return nil, err
	}
	return p.Interrupts, p.InterruptsErr
}

// Locality returns the FATAL spatial-concentration profile at the level
// (E10), rack or midplane, from the fused scan.
func (e *Env) Locality(level machine.Level) (*core.LocalityResult, error) {
	p, err := e.fusedProfile()
	if err != nil {
		return nil, err
	}
	return p.Locality(level)
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
