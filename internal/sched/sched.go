// Package sched implements a Cobalt-style space-sharing scheduler for Mira:
// jobs request a power-of-two block of midplanes and a walltime; the
// scheduler runs FCFS with optional EASY backfill over the machine's buddy
// allocator.
//
// The scheduler is a mechanism, not a clock: the corpus simulator owns
// virtual time and drives it through Submit / Schedule / Complete. This
// mirrors how placement interacts with failures — a job's hardware block is
// decided here, and the block determines which RAS events can hit the job.
package sched

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/machine"
)

// Policy selects the queueing discipline.
type Policy int

// Policies.
const (
	// FCFS starts jobs strictly in submission order; the queue head blocks
	// everything behind it.
	FCFS Policy = iota + 1
	// EASYBackfill lets later jobs jump ahead when they cannot delay the
	// queue head's earliest possible start (estimated from requested
	// walltimes).
	EASYBackfill
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "fcfs"
	case EASYBackfill:
		return "easy-backfill"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// maxBackfillDepth bounds how many waiting jobs behind the head are
// considered for backfill in one pass.
const maxBackfillDepth = 256

// queued is a job waiting for a block.
type queued struct {
	id       int64
	nodes    int
	walltime time.Duration
	submit   time.Time
}

// running is a job currently holding a block.
type running struct {
	id     int64
	block  machine.Block
	expEnd time.Time // start + requested walltime (for backfill estimates)
}

// StartDecision reports that a queued job was started on a block.
type StartDecision struct {
	JobID int64
	Block machine.Block
}

// Scheduler is the space-sharing scheduler state. Not safe for concurrent
// use; the simulation loop is single-threaded by design.
type Scheduler struct {
	policy  Policy
	alloc   *machine.Allocator
	queue   []queued
	running map[int64]running
}

// New returns an empty scheduler with the given policy.
func New(policy Policy) *Scheduler {
	return &Scheduler{
		policy:  policy,
		alloc:   machine.NewAllocator(),
		running: make(map[int64]running),
	}
}

// Submit enqueues a job request. Nodes must be a schedulable block size.
func (s *Scheduler) Submit(id int64, nodes int, walltime time.Duration, now time.Time) error {
	if !machine.ValidBlockNodes(nodes) {
		return fmt.Errorf("sched: job %d requests unschedulable size %d", id, nodes)
	}
	if walltime <= 0 {
		return fmt.Errorf("sched: job %d requests non-positive walltime", id)
	}
	s.queue = append(s.queue, queued{id: id, nodes: nodes, walltime: walltime, submit: now})
	return nil
}

// Schedule starts every job the policy allows at virtual time now and
// returns the start decisions in start order.
func (s *Scheduler) Schedule(now time.Time) []StartDecision {
	var started []StartDecision
	for {
		n := s.scheduleOnce(now, &started)
		if n == 0 {
			return started
		}
	}
}

// scheduleOnce makes a single pass over the queue and returns how many jobs
// it started.
func (s *Scheduler) scheduleOnce(now time.Time, started *[]StartDecision) int {
	if len(s.queue) == 0 {
		return 0
	}
	// Try the head first.
	head := s.queue[0]
	if block, ok := s.alloc.Alloc(head.nodes); ok {
		s.start(head, block, now, started)
		s.queue = s.queue[1:]
		return 1
	}
	if s.policy != EASYBackfill || len(s.queue) < 2 {
		return 0
	}
	// EASY backfill: a later job may start now only if its requested
	// walltime ends before the head's estimated start (shadow time), so the
	// head is never delayed. Shadow time is estimated by midplane counts —
	// buddy alignment can postpone the head slightly beyond it, which is the
	// standard conservative approximation.
	shadow, ok := s.shadowTime(now, head.nodes)
	if !ok {
		return 0
	}
	// Bound the scan like production backfill schedulers do: only the first
	// maxBackfillDepth waiting jobs are backfill candidates. This keeps
	// scheduling O(depth) under deep backlogs.
	limit := len(s.queue)
	if limit > 1+maxBackfillDepth {
		limit = 1 + maxBackfillDepth
	}
	for i := 1; i < limit; i++ {
		cand := s.queue[i]
		if now.Add(cand.walltime).After(shadow) {
			continue
		}
		block, ok := s.alloc.Alloc(cand.nodes)
		if !ok {
			continue
		}
		s.start(cand, block, now, started)
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		return 1
	}
	return 0
}

func (s *Scheduler) start(q queued, block machine.Block, now time.Time, started *[]StartDecision) {
	s.running[q.id] = running{id: q.id, block: block, expEnd: now.Add(q.walltime)}
	*started = append(*started, StartDecision{JobID: q.id, Block: block})
}

// shadowTime estimates when the queue head (needing the given node count)
// could start: the earliest instant at which enough midplanes will be free,
// assuming running jobs end at their requested walltimes.
func (s *Scheduler) shadowTime(now time.Time, nodes int) (time.Time, bool) {
	needed, err := machine.MidplanesForNodes(nodes)
	if err != nil {
		return time.Time{}, false
	}
	free := s.alloc.FreeMidplanes()
	if free >= needed {
		return now, true
	}
	ends := make([]running, 0, len(s.running))
	for _, r := range s.running {
		ends = append(ends, r)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].expEnd.Before(ends[j].expEnd) })
	for _, r := range ends {
		free += r.block.Midplanes
		if free >= needed {
			return r.expEnd, true
		}
	}
	return time.Time{}, false
}

// Complete releases the block of a running job.
func (s *Scheduler) Complete(id int64) error {
	r, ok := s.running[id]
	if !ok {
		return fmt.Errorf("sched: complete unknown job %d", id)
	}
	if err := s.alloc.Free(r.block); err != nil {
		return fmt.Errorf("sched: complete job %d: %w", id, err)
	}
	delete(s.running, id)
	return nil
}

// QueueLen returns the number of jobs waiting.
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// MarkDown takes the given midplanes out of service; busy midplanes are
// skipped (their jobs must be drained first) and the successfully marked
// ids are returned so the caller can MarkUp exactly those later.
func (s *Scheduler) MarkDown(ids []int) []int {
	marked := make([]int, 0, len(ids))
	for _, id := range ids {
		if err := s.alloc.MarkDown(id); err == nil {
			marked = append(marked, id)
		}
	}
	return marked
}

// MarkUp returns midplanes to service.
func (s *Scheduler) MarkUp(ids []int) error {
	for _, id := range ids {
		if err := s.alloc.MarkUp(id); err != nil {
			return fmt.Errorf("sched: %w", err)
		}
	}
	return nil
}
