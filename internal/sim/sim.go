package sim

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/raslog"
	"repro/internal/sched"
	"repro/internal/tasklog"
)

// Corpus is a complete synthetic observation window: the four logs plus the
// generator's ground truth for validation.
type Corpus struct {
	Config Config
	Jobs   []joblog.Job
	Tasks  []tasklog.Task
	Events []raslog.Event
	IO     []iolog.Record
	Truth  GroundTruth
}

// GroundTruth records what the generator actually injected, so tests and
// EXPERIMENTS.md can compare analysis output against reality.
type GroundTruth struct {
	Incidents        int // fatal incidents injected
	KillingIncidents int // incidents that interrupted ≥1 job
	SystemKilledJobs int // jobs ended by an incident
	UserFailedJobs   int // jobs ended by a user-caused failure
	SucceededJobs    int // jobs that completed cleanly
	DroppedArrivals  int // submissions never started inside the window
	Throttled        int // arrivals suppressed by queue-depth back-pressure
	Resubmissions    int // jobs created by resubmitting a failed job
	Repairs          int // service actions performed after incidents
	// RepairMidplaneHours is the total out-of-service time summed over
	// midplanes.
	RepairMidplaneHours float64
}

// jobPlan is a job's pre-drawn fate: size, walltime, natural duration and
// natural exit status. The incident timeline may override the ending.
type jobPlan struct {
	id       int64
	u        *user
	submit   time.Time
	nodes    int
	ranks    int
	walltime time.Duration
	duration time.Duration
	exit     int
	tasks    int
	chain    int   // resubmission depth (0 = fresh submission)
	resubOf  int64 // id of the failed job this resubmits (0 = none)
}

// runState tracks a started job.
type runState struct {
	plan  *jobPlan
	block machine.Block
	start time.Time
}

// Event kinds for the simulation heap.
const (
	evArrival = iota + 1
	evCompletion
	evIncident
	evRepairEnd
)

type simEvent struct {
	at   time.Time
	kind int
	seq  int64 // deterministic tiebreak
	idx  int   // arrival/incident index
	job  int64 // completion job id
}

type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// shardDays is the fixed granularity at which the observation window is
// split for parallel generation. It is a property of the corpus definition,
// NOT of the machine: shard boundaries and the per-shard RNG seeds depend
// only on (Config, Seed), so the corpus is bit-identical for any worker
// count. The phases generated per shard (arrivals, incidents, noise) are
// Poisson processes, which are memoryless — restarting the inter-arrival
// draw at a shard boundary leaves the process law unchanged.
const shardDays = 25

// dayShard is one [Lo, Hi) day range of the observation window.
type dayShard struct{ Lo, Hi int }

// dayShards splits the observation span into fixed-size day ranges.
func dayShards(days int) []dayShard {
	shards := make([]dayShard, 0, (days+shardDays-1)/shardDays)
	for lo := 0; lo < days; lo += shardDays {
		hi := lo + shardDays
		if hi > days {
			hi = days
		}
		shards = append(shards, dayShard{Lo: lo, Hi: hi})
	}
	return shards
}

// Phase salts for the generator's independent RNG sub-streams.
const (
	saltPopulation = 1
	saltArrival    = 2
	saltIncident   = 3
	saltLoop       = 4
	saltNoise      = 5
	saltCascade    = 6
)

// shardSeed derives the seed of one shard (or one incident) of a phase from
// the config seed. splitmix64-style mixing keeps the per-shard streams
// statistically independent even though the inputs differ in few bits.
func shardSeed(seed, salt int64, idx int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(salt)<<40 + uint64(idx+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// shardRNG returns the deterministic RNG of one shard of a phase.
func shardRNG(seed, salt int64, idx int) *rand.Rand {
	return rand.New(rand.NewSource(shardSeed(seed, salt, idx)))
}

// Generate produces a corpus from the configuration. The same (Config,
// Seed) always yields the identical corpus. Generation uses all cores; use
// GenerateParallel to bound the worker count — the corpus is identical
// either way.
func Generate(cfg Config) (*Corpus, error) {
	return GenerateParallel(cfg, 0)
}

// GenerateParallel generates the corpus with at most workers goroutines
// (≤ 0 means GOMAXPROCS). The day range is sharded at a fixed granularity
// with a deterministic per-shard RNG for each generation phase, and shard
// outputs are concatenated in day order, so the corpus for a given (Config,
// Seed) is bit-identical regardless of the worker count or GOMAXPROCS. Only
// the event-driven scheduler replay is serial — it is a global stateful
// simulation; the random-drawing phases around it (arrivals, incident
// timeline, cascade expansion, background noise) all fan out.
func GenerateParallel(cfg Config, workers int) (*Corpus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	// Independent sub-streams per generation phase keep the phases
	// decoupled: tuning the workload does not perturb the fault timeline
	// and vice versa.
	subRNG := func(salt int64) *rand.Rand {
		return rand.New(rand.NewSource(cfg.Seed<<20 ^ salt))
	}
	pop := buildPopulation(&cfg, subRNG(saltPopulation))
	laws := DurationLaws()
	shards := dayShards(cfg.Days)

	// Arrivals: one nonhomogeneous Poisson stream per day shard, each from
	// its own seed, concatenated in day order with ids assigned afterwards
	// (shards are disjoint in time, so the concatenation is time-ordered).
	planShards, err := par.Map(ctx, shards, workers, func(s int, sh dayShard) ([]jobPlan, error) {
		return buildArrivalsShard(&cfg, pop, laws, sh, shardRNG(cfg.Seed, saltArrival, s)), nil
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	var plans []jobPlan
	for _, ps := range planShards {
		plans = append(plans, ps...)
	}
	for i := range plans {
		plans[i].id = int64(i + 1)
	}

	// Incidents: the hot-midplane set is global (drawn once), the bathtub
	// Poisson timeline is sharded like the arrivals. Per-shard neighbor
	// propagation can spill past a shard's end, so the concatenation gets a
	// final stable time sort.
	hot, cold := hotColdMidplanes(&cfg, subRNG(saltIncident))
	incidentShards, err := par.Map(ctx, shards, workers, func(s int, sh dayShard) ([]incident, error) {
		return buildIncidentsShard(&cfg, hot, cold, sh, shardRNG(cfg.Seed, saltIncident, s)), nil
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	var incidents []incident
	for _, is := range incidentShards {
		incidents = append(incidents, is...)
	}
	sort.SliceStable(incidents, func(i, j int) bool { return incidents[i].at.Before(incidents[j].at) })

	rng := subRNG(saltLoop) // tasks + I/O records during the loop

	c := &Corpus{Config: cfg}
	c.Truth.Incidents = len(incidents)

	end := cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	s := sched.New(cfg.Policy)

	var h eventHeap
	var seq int64
	push := func(at time.Time, kind, idx int, job int64) {
		seq++
		heap.Push(&h, simEvent{at: at, kind: kind, seq: seq, idx: idx, job: job})
	}
	for i := range plans {
		push(plans[i].submit, evArrival, 0, plans[i].id)
	}
	for i := range incidents {
		push(incidents[i].at, evIncident, i, 0)
	}

	planByID := make(map[int64]*jobPlan, len(plans))
	nextID := int64(0)
	for i := range plans {
		planByID[plans[i].id] = &plans[i]
		if plans[i].id > nextID {
			nextID = plans[i].id
		}
	}
	running := make(map[int64]*runState)
	var taskID int64

	// Service actions: each incident takes its midplanes out of service for
	// a lognormal repair window, bracketed by begin/end RAS records so the
	// availability analysis can recover downtime from the log alone.
	type repair struct {
		marked []int
		end    time.Time
	}
	var repairs []repair
	var serviceEvents []raslog.Event

	finalize := func(r *runState, endAt time.Time, exit int, now time.Time) error {
		p := r.plan
		job := joblog.Job{
			ID: p.id, User: p.u.name, Project: p.u.project, Queue: queueFor(p.nodes),
			Submit: p.submit, Start: r.start, End: endAt,
			WalltimeReq: p.walltime, Nodes: p.nodes, RanksPerNode: p.ranks,
			NumTasks: p.tasks, ExitStatus: exit,
		}
		c.Jobs = append(c.Jobs, job)
		c.Tasks = append(c.Tasks, makeTasks(rng, &taskID, &job, r.block)...)
		if rng.Float64() < cfg.IOSampling {
			c.IO = append(c.IO, makeIO(rng, &job, p.u))
		}
		if err := s.Complete(p.id); err != nil {
			return err
		}
		delete(running, p.id)
		// Failed work comes back: users resubmit user-failed jobs after a
		// short think time, up to a bounded chain — the resubmission
		// behaviour the E20 analysis measures.
		if exit != joblog.ExitSuccess && exit != joblog.ExitSystemReserved &&
			p.chain < maxResubChain && rng.Float64() < cfg.ResubmitProb {
			delay := time.Duration(math.Exp(math.Log(480)+0.9*rng.NormFloat64())) * time.Second
			if at := endAt.Add(delay); at.Before(end) {
				nextID++
				resub := *p
				resub.id = nextID
				resub.chain = p.chain + 1
				resub.resubOf = p.id
				resub.submit = at
				drawFate(&cfg, p.u, laws, rng, &resub)
				planByID[resub.id] = &resub
				c.Truth.Resubmissions++
				push(at, evArrival, 0, resub.id)
			}
		}
		return nil
	}

	trySchedule := func(now time.Time) {
		if now.After(end) {
			return
		}
		for _, d := range s.Schedule(now) {
			p := planByID[d.JobID]
			r := &runState{plan: p, block: d.Block, start: now}
			running[p.id] = r
			push(now.Add(p.duration), evCompletion, 0, p.id)
		}
	}

	for h.Len() > 0 {
		e := heap.Pop(&h).(simEvent)
		now := e.at
		switch e.kind {
		case evArrival:
			p := planByID[e.job]
			if now.After(end) {
				c.Truth.DroppedArrivals++
				continue
			}
			// Closed-loop elasticity: users seeing a deep backlog hold
			// their submissions, so the queue (and with it the waiting
			// time) stays bounded even at saturation.
			if cfg.MaxQueue > 0 && s.QueueLen() >= cfg.MaxQueue {
				c.Truth.Throttled++
				continue
			}
			if err := s.Submit(p.id, p.nodes, p.walltime, now); err != nil {
				return nil, fmt.Errorf("sim: %w", err)
			}
			trySchedule(now)
		case evIncident:
			inc := &incidents[e.idx]
			killed := 0
			// Deterministic victim order: ascending job id.
			ids := make([]int64, 0, 4)
			for id, r := range running {
				if r.block.ContainsLocation(inc.loc) {
					ids = append(ids, id)
				}
			}
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			for _, id := range ids {
				r := running[id]
				if inc.killedJob == 0 {
					inc.killedJob = id
				}
				if err := finalize(r, now, joblog.ExitSystemReserved, now); err != nil {
					return nil, fmt.Errorf("sim: %w", err)
				}
				killed++
			}
			if killed > 0 {
				c.Truth.KillingIncidents++
				c.Truth.SystemKilledJobs += killed
			}
			// Begin the service action: the incident's midplanes leave
			// service until the repair completes.
			if mids := incidentMidplanes(inc.loc); len(mids) > 0 {
				dur := time.Duration(math.Exp(math.Log(cfg.RepairMedian.Hours())+0.8*rng.NormFloat64())*3600) * time.Second
				if dur < 10*time.Minute {
					dur = 10 * time.Minute
				}
				marked := s.MarkDown(mids)
				if len(marked) > 0 {
					r := repair{marked: marked, end: now.Add(dur)}
					repairs = append(repairs, r)
					c.Truth.Repairs++
					c.Truth.RepairMidplaneHours += dur.Hours() * float64(len(marked))
					for _, id := range marked {
						loc, err := machine.MidplaneByID(id)
						if err != nil {
							continue
						}
						serviceEvents = append(serviceEvents,
							serviceEvent(raslog.MsgServiceBegin, now.Add(30*time.Second), loc),
							serviceEvent(raslog.MsgServiceEnd, r.end, loc))
					}
					push(r.end, evRepairEnd, len(repairs)-1, 0)
				}
			}
			trySchedule(now)
		case evRepairEnd:
			if err := s.MarkUp(repairs[e.idx].marked); err != nil {
				return nil, fmt.Errorf("sim: %w", err)
			}
			trySchedule(now)
		case evCompletion:
			r, ok := running[e.job]
			if !ok {
				continue // job was killed by an incident; stale event
			}
			if err := finalize(r, now, r.plan.exit, now); err != nil {
				return nil, fmt.Errorf("sim: %w", err)
			}
			trySchedule(now)
		}
	}

	for _, j := range c.Jobs {
		switch {
		case j.ExitStatus == joblog.ExitSuccess:
			c.Truth.SucceededJobs++
		case j.ExitStatus == joblog.ExitSystemReserved:
			// counted during the loop
		default:
			c.Truth.UserFailedJobs++
		}
	}

	// Render the RAS stream: background noise (sharded by day range) plus
	// incident cascades (one RNG per incident, with job attribution fixed
	// during the loop), concatenated in a fixed order, then sorted by time.
	noiseShards, err := par.Map(ctx, shards, workers, func(s int, sh dayShard) ([]raslog.Event, error) {
		return buildNoiseShard(&cfg, sh, shardRNG(cfg.Seed, saltNoise, s)), nil
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	bursts, err := par.Map(ctx, incidents, workers, func(i int, _ incident) ([]raslog.Event, error) {
		return expandIncident(&cfg, shardRNG(cfg.Seed, saltCascade, i), &incidents[i]), nil
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	var events []raslog.Event
	for _, ns := range noiseShards {
		events = append(events, ns...)
	}
	for _, b := range bursts {
		events = append(events, b...)
	}
	events = append(events, serviceEvents...)
	// Pre-sort record ids make the equal-time tiebreak total, so the final
	// order is fully determined by the (deterministic) concatenation order.
	for i := range events {
		events[i].RecID = int64(i + 1)
	}
	sort.Slice(events, func(i, j int) bool {
		if !events[i].Time.Equal(events[j].Time) {
			return events[i].Time.Before(events[j].Time)
		}
		return events[i].RecID < events[j].RecID
	})
	for i := range events {
		events[i].RecID = int64(i + 1)
	}
	c.Events = events

	sort.Slice(c.Jobs, func(i, j int) bool { return c.Jobs[i].ID < c.Jobs[j].ID })
	sort.Slice(c.Tasks, func(i, j int) bool { return c.Tasks[i].ID < c.Tasks[j].ID })
	sort.Slice(c.IO, func(i, j int) bool { return c.IO[i].JobID < c.IO[j].JobID })
	c.toLogResolution()
	return c, nil
}

// toLogResolution floors every timestamp to the whole second the logs
// record. The simulation runs in nanoseconds, so its event order and
// record ids are settled before this pass; flooring keeps time order.
func (c *Corpus) toLogResolution() {
	for i := range c.Jobs {
		j := &c.Jobs[i]
		j.Submit, j.Start, j.End = j.Submit.Truncate(time.Second), j.Start.Truncate(time.Second), j.End.Truncate(time.Second)
	}
	for i := range c.Tasks {
		t := &c.Tasks[i]
		t.Start, t.End = t.Start.Truncate(time.Second), t.End.Truncate(time.Second)
	}
	for i := range c.Events {
		c.Events[i].Time = c.Events[i].Time.Truncate(time.Second)
	}
}

// buildArrivalsShard draws the submission stream of one day shard: a
// nonhomogeneous Poisson process (diurnal + weekly modulation) with
// per-user job fates. Poisson inter-arrival draws are memoryless, so
// restarting the stream at the shard boundary preserves the process law.
// Job ids are assigned after the shards are concatenated.
func buildArrivalsShard(cfg *Config, pop *population, laws map[joblog.ExitFamily]dist.Distribution, sh dayShard, rng *rand.Rand) []jobPlan {
	baseRate := cfg.JobsPerDay / (24 * 3600) // per second at factor 1
	maxFactor := 1.0
	start := cfg.Start.Add(time.Duration(sh.Lo) * 24 * time.Hour)
	end := cfg.Start.Add(time.Duration(sh.Hi) * 24 * time.Hour)
	var plans []jobPlan
	t := start
	for {
		// Thinning with the max-rate envelope.
		gap := rng.ExpFloat64() / (baseRate * maxFactor)
		t = t.Add(time.Duration(gap * float64(time.Second)))
		if !t.Before(end) {
			break
		}
		if rng.Float64() > arrivalFactor(cfg, t)/maxFactor {
			continue
		}
		plans = append(plans, drawJob(cfg, pop, laws, rng, 0, t))
	}
	return plans
}

// arrivalFactor modulates the arrival rate by hour of day and weekday.
func arrivalFactor(cfg *Config, t time.Time) float64 {
	f := 1.0
	if h := t.Hour(); h < 8 {
		f *= cfg.NightFactor
	}
	if wd := t.Weekday(); wd == time.Saturday || wd == time.Sunday {
		f *= cfg.WeekendFactor
	}
	return f
}

// drawJob draws one job's user, size, walltime, natural duration and exit.
func drawJob(cfg *Config, pop *population, laws map[joblog.ExitFamily]dist.Distribution, rng *rand.Rand, id int64, submit time.Time) jobPlan {
	u := pop.pickUser(rng)
	p := jobPlan{id: id, u: u, submit: submit, nodes: u.pickSize(rng), ranks: pickRanks(rng)}
	p.tasks = 1
	for rng.Float64() < 0.35 && p.tasks < 12 {
		p.tasks++
	}
	drawFate(cfg, u, laws, rng, &p)
	return p
}

// drawFate draws (or redraws, for a resubmission) a job's walltime,
// natural duration and exit status given its structure. Failure
// probability grows with execution structure, as the paper observes:
// larger allocations expose scale bugs, and multi-task scripts multiply
// the chances that one run trips.
func drawFate(cfg *Config, u *user, laws map[joblog.ExitFamily]dist.Distribution, rng *rand.Rand, p *jobPlan) {
	walltime := math.Exp(u.walltimeMu + 0.6*rng.NormFloat64())
	walltime = clamp(walltime, 600, 86400)
	scaleBoost := 1 + 0.40*math.Log2(float64(p.nodes)/512)/6.5
	taskBoost := 1 + 0.06*float64(p.tasks-1)
	failProb := clamp(u.failProb*scaleBoost*taskBoost, 0.01, 0.95)
	if rng.Float64() < failProb {
		family, exit := u.pickFailure(rng)
		d := laws[family].Rand(rng)
		d = clamp(d, 1, 86400)
		p.duration = time.Duration(math.Round(d)) * time.Second
		p.exit = exit
		if need := 1.1 * d; walltime < need {
			walltime = need
		}
	} else {
		frac := 0.35 + 0.6*math.Pow(rng.Float64(), 0.8)
		p.duration = time.Duration(math.Round(walltime*frac)) * time.Second
		p.exit = joblog.ExitSuccess
	}
	if p.duration < time.Second {
		p.duration = time.Second
	}
	p.walltime = time.Duration(math.Round(walltime)) * time.Second
}

// pickRanks draws the BG/Q execution mode (ranks per node).
func pickRanks(rng *rand.Rand) int {
	switch r := rng.Float64(); {
	case r < 0.70:
		return 16
	case r < 0.85:
		return 32
	case r < 0.93:
		return 8
	case r < 0.98:
		return 64
	default:
		return 4
	}
}

// queueFor names the submission queue by job size, Mira-style.
func queueFor(nodes int) string {
	switch {
	case nodes >= 8192:
		return "prod-capability"
	case nodes >= 4096:
		return "prod-long"
	default:
		return "prod-short"
	}
}

// makeTasks splits a job's execution into its physical runs: contiguous
// segments on the job's block; the final run carries the job's exit status.
func makeTasks(rng *rand.Rand, taskID *int64, j *joblog.Job, block machine.Block) []tasklog.Task {
	n := j.NumTasks
	total := j.End.Sub(j.Start)
	if total <= 0 {
		n = 1
	}
	// Random cut points produce uneven task lengths, like real run scripts.
	cuts := make([]float64, 0, n+1)
	cuts = append(cuts, 0)
	for i := 0; i < n-1; i++ {
		cuts = append(cuts, rng.Float64())
	}
	cuts = append(cuts, 1)
	sort.Float64s(cuts)
	tasks := make([]tasklog.Task, 0, n)
	for i := 0; i < n; i++ {
		*taskID++
		start := j.Start.Add(time.Duration(cuts[i] * float64(total)))
		end := j.Start.Add(time.Duration(cuts[i+1] * float64(total)))
		exit := 0
		if i == n-1 {
			exit = j.ExitStatus
		}
		tasks = append(tasks, tasklog.Task{
			ID: *taskID, JobID: j.ID, Block: block,
			Start: start, End: end, Nodes: j.Nodes, ExitStatus: exit,
		})
	}
	return tasks
}

// makeIO draws a Darshan-style record for the job. Volume scales sublinearly
// with core-hours and is cut by early termination, so failed jobs move less
// data — the correlation experiment E13 measures exactly this.
func makeIO(rng *rand.Rand, j *joblog.Job, u *user) iolog.Record {
	ch := j.CoreHours()
	if ch < 1 {
		ch = 1
	}
	scale := math.Pow(ch/1e4, 0.6) * u.ioScale
	total := math.Exp(math.Log(2e9)+1.3*rng.NormFloat64()) * scale
	if j.ExitStatus != joblog.ExitSuccess {
		// Interrupted work: proportional to the fraction of walltime used.
		frac := float64(j.Runtime()) / float64(j.WalltimeReq)
		total *= clamp(frac, 0.02, 1)
	}
	readFrac := clamp(0.15+0.5*rng.Float64(), 0, 1)
	read := total * readFrac
	written := total - read
	bw := 0.5e9 + 4.5e9*rng.Float64() // aggregate file-system bandwidth
	ioTime := time.Duration(total / bw * float64(time.Second))
	return iolog.Record{
		JobID:        j.ID,
		BytesRead:    int64(read),
		BytesWritten: int64(written),
		FilesRead:    1 + rng.Intn(64),
		FilesWritten: 1 + rng.Intn(512),
		MetaOps:      int64(1000 + rng.Intn(500000)),
		IOTime:       iolog.CSVGranular(ioTime),
	}
}

// maxResubChain bounds how many times one failing job is resubmitted.
const maxResubChain = 3

// incidentMidplanes returns the linear midplane IDs an incident's root
// location covers (1 for midplane-level, 2 for rack-level, none for
// system-level).
func incidentMidplanes(loc machine.Location) []int {
	switch loc.Level() {
	case machine.LevelRack:
		base := loc.RackIndex() * machine.MidplanesPerRack
		return []int{base, base + 1}
	case machine.LevelSystem:
		return nil
	default:
		id, err := loc.MidplaneID()
		if err != nil {
			return nil
		}
		return []int{id}
	}
}

// serviceEvent builds a service-action RAS record; record IDs are assigned
// when the full stream is sorted.
func serviceEvent(msgID string, at time.Time, loc machine.Location) raslog.Event {
	entry, ok := raslog.CatalogByID()[msgID]
	if !ok {
		entry = raslog.CatalogEntry{Comp: raslog.CompMMCS, Cat: raslog.CatInfra, Sev: raslog.Info, Message: "service action"}
	}
	return raslog.Event{
		MsgID:   msgID,
		Comp:    entry.Comp,
		Cat:     entry.Cat,
		Sev:     raslog.Info,
		Time:    at,
		Loc:     loc,
		Message: entry.Message,
		Count:   1,
	}
}
