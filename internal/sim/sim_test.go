package sim

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/tasklog"
)

// genSmall generates (and caches) a small corpus shared by the tests.
var smallCorpus *Corpus

func small(t *testing.T) *Corpus {
	t.Helper()
	if smallCorpus == nil {
		c, err := Generate(SmallConfig())
		if err != nil {
			t.Fatal(err)
		}
		smallCorpus = c
	}
	return smallCorpus
}

func TestConfigValidate(t *testing.T) {
	good := SmallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Days = 0 },
		func(c *Config) { c.Start = time.Time{} },
		func(c *Config) { c.NumUsers = 0 },
		func(c *Config) { c.JobsPerDay = 0 },
		func(c *Config) { c.MeanFailProb = 0 },
		func(c *Config) { c.MeanFailProb = 1 },
		func(c *Config) { c.IncidentsPerYear = -1 },
		func(c *Config) { c.CascadeMeanEvents = 0 },
		func(c *Config) { c.CascadeWindow = 0 },
		func(c *Config) { c.HotMidplanes = 200 },
		func(c *Config) { c.HotHazardShare = 1.5 },
		func(c *Config) { c.IOSampling = 0 },
		func(c *Config) { c.Policy = 0 },
		func(c *Config) { c.PrecursorProb = -0.1 },
		func(c *Config) { c.PrecursorLead = 0 },
		func(c *Config) { c.NeighborSpread = 2 },
		func(c *Config) { c.ResubmitProb = -1 },
		func(c *Config) { c.MaxQueue = -5 },
		func(c *Config) { c.RepairMedian = 0 },
	}
	for i, mutate := range mutations {
		c := SmallConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := Generate(c); err == nil {
			t.Errorf("mutation %d generated", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := SmallConfig()
	cfg.Days = 7
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != len(b.Jobs) || len(a.Events) != len(b.Events) ||
		len(a.Tasks) != len(b.Tasks) || len(a.IO) != len(b.IO) {
		t.Fatalf("non-deterministic sizes: %d/%d jobs, %d/%d events",
			len(a.Jobs), len(b.Jobs), len(a.Events), len(b.Events))
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs: %+v vs %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	// A different seed must give a different corpus.
	cfg.Seed = 2
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Jobs) == len(a.Jobs) && len(c.Events) == len(a.Events) &&
		len(c.Jobs) > 0 && c.Jobs[0] == a.Jobs[0] {
		t.Error("different seeds produced identical corpora")
	}
}

func TestJobsValid(t *testing.T) {
	c := small(t)
	if len(c.Jobs) < 1000 {
		t.Fatalf("only %d jobs in 30 days", len(c.Jobs))
	}
	for i := range c.Jobs {
		if err := c.Jobs[i].Validate(); err != nil {
			t.Fatalf("invalid job: %v", err)
		}
		if c.Jobs[i].Runtime() > c.Jobs[i].WalltimeReq+time.Second {
			// System kills can exceed nothing; natural ends are bounded by
			// construction (duration ≤ walltime for successes, walltime
			// raised above duration for failures).
			if c.Jobs[i].ExitStatus != joblog.ExitSystemReserved {
				t.Fatalf("job %d ran past its walltime: run=%v wall=%v exit=%d",
					c.Jobs[i].ID, c.Jobs[i].Runtime(), c.Jobs[i].WalltimeReq, c.Jobs[i].ExitStatus)
			}
		}
	}
}

func TestTasksConsistent(t *testing.T) {
	c := small(t)
	byJob := map[int64][]tasklog.Task{}
	for _, task := range c.Tasks {
		byJob[task.JobID] = append(byJob[task.JobID], task)
	}
	if len(byJob) != len(c.Jobs) {
		t.Fatalf("tasks cover %d jobs, corpus has %d", len(byJob), len(c.Jobs))
	}
	for i := range c.Jobs {
		j := &c.Jobs[i]
		tasks := byJob[j.ID]
		if len(tasks) != j.NumTasks {
			t.Fatalf("job %d: %d tasks, declared %d", j.ID, len(tasks), j.NumTasks)
		}
		last := tasks[len(tasks)-1]
		if last.ExitStatus != j.ExitStatus {
			t.Fatalf("job %d: final task exit %d != job exit %d", j.ID, last.ExitStatus, j.ExitStatus)
		}
		for k := range tasks {
			if err := tasks[k].Validate(); err != nil {
				t.Fatalf("job %d task: %v", j.ID, err)
			}
			if tasks[k].Start.Before(j.Start) || tasks[k].End.After(j.End.Add(time.Second)) {
				t.Fatalf("job %d task outside job interval", j.ID)
			}
			if tasks[k].Block.Nodes() < j.Nodes {
				t.Fatalf("job %d block smaller than job", j.ID)
			}
		}
	}
}

func TestIOReferencesJobs(t *testing.T) {
	c := small(t)
	ids := make(map[int64]bool, len(c.Jobs))
	for i := range c.Jobs {
		ids[c.Jobs[i].ID] = true
	}
	if len(c.IO) == 0 {
		t.Fatal("no IO records")
	}
	frac := float64(len(c.IO)) / float64(len(c.Jobs))
	if frac < c.Config.IOSampling-0.1 || frac > c.Config.IOSampling+0.1 {
		t.Errorf("io sampling fraction %v, configured %v", frac, c.Config.IOSampling)
	}
	for i := range c.IO {
		if !ids[c.IO[i].JobID] {
			t.Fatalf("io record for unknown job %d", c.IO[i].JobID)
		}
		if err := c.IO[i].Validate(); err != nil {
			t.Fatalf("invalid io record: %v", err)
		}
	}
}

func TestEventsSortedAndValid(t *testing.T) {
	c := small(t)
	if len(c.Events) == 0 {
		t.Fatal("no RAS events")
	}
	catalog := raslog.CatalogByID()
	for i := range c.Events {
		e := &c.Events[i]
		if i > 0 && e.Time.Before(c.Events[i-1].Time) {
			t.Fatalf("events not sorted at %d", i)
		}
		if e.RecID != int64(i+1) {
			t.Fatalf("rec ids not sequential at %d", i)
		}
		entry, ok := catalog[e.MsgID]
		if !ok {
			t.Fatalf("event %d has unknown msg id %s", i, e.MsgID)
		}
		if entry.Sev != e.Sev || entry.Comp != e.Comp || entry.Cat != e.Cat {
			t.Fatalf("event %d inconsistent with catalog", i)
		}
	}
}

func TestTruthConsistent(t *testing.T) {
	c := small(t)
	tr := c.Truth
	if tr.SucceededJobs+tr.UserFailedJobs+tr.SystemKilledJobs != len(c.Jobs) {
		t.Errorf("truth outcome counts %d+%d+%d != %d jobs",
			tr.SucceededJobs, tr.UserFailedJobs, tr.SystemKilledJobs, len(c.Jobs))
	}
	systemJobs := 0
	for i := range c.Jobs {
		if c.Jobs[i].ExitStatus == joblog.ExitSystemReserved {
			systemJobs++
		}
	}
	if systemJobs != tr.SystemKilledJobs {
		t.Errorf("system-killed: truth %d, corpus %d", tr.SystemKilledJobs, systemJobs)
	}
	if tr.KillingIncidents > tr.Incidents {
		t.Errorf("killing incidents %d > incidents %d", tr.KillingIncidents, tr.Incidents)
	}
	if tr.SystemKilledJobs < tr.KillingIncidents {
		t.Errorf("each killing incident kills ≥1 job: %d < %d", tr.SystemKilledJobs, tr.KillingIncidents)
	}
	// Failure mix sanity: user failures dominate.
	if tr.UserFailedJobs <= 10*tr.SystemKilledJobs {
		t.Errorf("user/system failure ratio too low: %d vs %d", tr.UserFailedJobs, tr.SystemKilledJobs)
	}
	failRate := float64(tr.UserFailedJobs) / float64(len(c.Jobs))
	if failRate < 0.15 || failRate > 0.45 {
		t.Errorf("user failure rate %v outside sane band", failRate)
	}
}

func TestSystemKilledJobsHaveFatalEvents(t *testing.T) {
	c := small(t)
	attributed := map[int64]bool{}
	for i := range c.Events {
		if c.Events[i].Sev == raslog.Fatal && c.Events[i].JobID != 0 {
			attributed[c.Events[i].JobID] = true
		}
	}
	// Every first-victim job of a killing incident is attributed; jobs
	// killed as secondary victims of a rack-level incident may not be. So
	// the attributed set must be non-empty and every attributed job must be
	// a system-killed job.
	if len(attributed) == 0 && c.Truth.KillingIncidents > 0 {
		t.Fatal("no FATAL event attributed to any killed job")
	}
	byID := map[int64]*joblog.Job{}
	for i := range c.Jobs {
		byID[c.Jobs[i].ID] = &c.Jobs[i]
	}
	for id := range attributed {
		j, ok := byID[id]
		if !ok {
			t.Fatalf("attributed job %d not in corpus", id)
		}
		if j.ExitStatus != joblog.ExitSystemReserved {
			t.Errorf("attributed job %d has exit %d, want system", id, j.ExitStatus)
		}
	}
	if got := len(attributed); got != c.Truth.KillingIncidents {
		// One job can be the first victim of only one incident (it dies),
		// and each killing incident has exactly one first victim.
		t.Errorf("attributed jobs %d != killing incidents %d", got, c.Truth.KillingIncidents)
	}
}

func TestJobIDsUniqueAndOrdered(t *testing.T) {
	c := small(t)
	seen := map[int64]bool{}
	for i := range c.Jobs {
		id := c.Jobs[i].ID
		if seen[id] {
			t.Fatalf("duplicate job id %d", id)
		}
		seen[id] = true
		if i > 0 && id <= c.Jobs[i-1].ID {
			t.Fatalf("jobs not sorted by id at %d", i)
		}
	}
}

func TestDurationLawsComplete(t *testing.T) {
	laws := DurationLaws()
	for _, f := range failureMixBase {
		if _, ok := laws[f.family]; !ok {
			t.Errorf("no duration law for family %s", f.family)
		}
	}
	names := map[string]bool{}
	for _, d := range laws {
		names[d.Name()] = true
	}
	// The paper's four families must all be injected.
	for _, want := range []string{"weibull", "pareto", "inverse-gaussian", "exponential", "erlang"} {
		if !names[want] {
			t.Errorf("law family %s not injected", want)
		}
	}
}

// TestCorpusEqualsCSVRoundTrip pins the corpus resolution: the simulator
// emits records at the logs' resolution, so writing the four logs as CSV
// and reading them back gives the corpus again, record for record.
func TestCorpusEqualsCSVRoundTrip(t *testing.T) {
	c := small(t)
	var jb, tb, rb, ib bytes.Buffer
	for _, err := range []error{
		joblog.WriteCSV(&jb, c.Jobs), tasklog.WriteCSV(&tb, c.Tasks),
		raslog.WriteCSV(&rb, c.Events), iolog.WriteCSV(&ib, c.IO),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	jobs, err := joblog.ReadCSV(&jb)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := tasklog.ReadCSV(&tb)
	if err != nil {
		t.Fatal(err)
	}
	events, err := raslog.ReadCSV(&rb)
	if err != nil {
		t.Fatal(err)
	}
	io, err := iolog.ReadCSV(&ib)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []struct {
		name      string
		got, want any
	}{
		{"jobs", jobs, c.Jobs}, {"tasks", tasks, c.Tasks}, {"events", events, c.Events}, {"io", io, c.IO},
	} {
		got, want := reflect.ValueOf(l.got), reflect.ValueOf(l.want)
		if got.Len() != want.Len() {
			t.Errorf("%s: %d records read back, want %d", l.name, got.Len(), want.Len())
			continue
		}
		for i := 0; i < want.Len(); i++ {
			if g, w := got.Index(i).Interface(), want.Index(i).Interface(); !reflect.DeepEqual(g, w) {
				t.Errorf("%s record %d: read back %+v, want %+v", l.name, i, g, w)
				break
			}
		}
	}
}
