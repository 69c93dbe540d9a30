package stats_test

import (
	"testing"

	"repro/internal/joblog"
	"repro/internal/sim"
	"repro/internal/stats"
)

// survivalObservations builds the E23 observations of a corpus the way
// core.Survival does: every job with a positive runtime, a user failure
// observed and anything else censored.
func survivalObservations(jobs []joblog.Job) []stats.Observation {
	var obs []stats.Observation
	for i := range jobs {
		j := &jobs[i]
		sec := j.Runtime().Seconds()
		if sec <= 0 {
			continue
		}
		observed := j.Outcome() == joblog.OutcomeFailure &&
			joblog.Family(j.ExitStatus) != joblog.FamilySystem
		obs = append(obs, stats.Observation{Time: sec, Observed: observed})
	}
	return obs
}

// TestKaplanMeierMatchesPerObservationOnCorpus runs the per-observation
// oracle check of TestKaplanMeierMatchesPerObservation on the 30-day
// corpus's E23 observations.
func TestKaplanMeierMatchesPerObservationOnCorpus(t *testing.T) {
	c, err := sim.Generate(sim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	corpus := survivalObservations(c.Jobs)
	if len(corpus) < 1000 {
		t.Fatalf("30-day corpus has only %d survival observations", len(corpus))
	}
	stats.CheckMatchesPerObservation(t, "30-day corpus", corpus)
}
