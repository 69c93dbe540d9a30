package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sel"
)

// facts are the properties of the corpus the request stream is drawn
// from. Together with the seed they fix every input of a run.
type facts struct {
	users                   []string // job users, sorted
	firstSubmit, lastSubmit int64    // Unix seconds
	firstEvent, lastEvent   int64
}

func factsOf(d *core.Dataset) facts {
	jv, ev := d.JobView(), d.EventView()
	f := facts{users: append([]string(nil), jv.Users...)}
	sort.Strings(f.users)
	f.firstSubmit, f.lastSubmit = jv.SubmitUnix[0], jv.SubmitUnix[0]
	for _, u := range jv.SubmitUnix {
		f.firstSubmit, f.lastSubmit = min(f.firstSubmit, u), max(f.lastSubmit, u)
	}
	f.firstEvent, f.lastEvent = ev.TimeUnix[0], ev.TimeUnix[0]
	for _, u := range ev.TimeUnix {
		f.firstEvent, f.lastEvent = min(f.firstEvent, u), max(f.lastEvent, u)
	}
	return f
}

// query is one cohort request: the predicate as sent, its canonical form
// (the serve cache key) and the shape it was drawn from.
type query struct {
	where, canon string
	shape        int
}

const day = 24 * 60 * 60

// Shape indexes into shapes.
const (
	shapeUser = iota
	shapeRackFatal
	shapeWeek
	shapeFailedBig
	shapeUserEvents
)

// shapes are the five predicate shapes of the cohort stream, drawn with
// equal weight. They differ in which side of the corpus they select and
// so in scan cost; with an odd number of equal shares, p50 and p90 fall
// inside one shape's requests rather than in a gap between two shapes.
var shapes = []struct {
	name string
	draw func(r *rand.Rand, f *facts) string
}{
	{"user", func(r *rand.Rand, f *facts) string {
		lo := between(r, f.firstSubmit, f.lastSubmit-180*day)
		return fmt.Sprintf("user == %q and submit >= %s and submit < %s",
			pick(r, f.users), stamp(lo), stamp(lo+between(r, 60*day, 180*day)))
	}},
	{"rack_fatal", func(r *rand.Rand, f *facts) string {
		rack, _ := machine.Rack(r.Intn(machine.NumRacks))
		return fmt.Sprintf("rack == %s and sev == FATAL and time >= %s",
			rack, stamp(between(r, f.firstEvent, f.lastEvent-30*day)))
	}},
	{"week", func(r *rand.Rand, f *facts) string {
		lo := between(r, max(f.firstSubmit, f.firstEvent), min(f.lastSubmit, f.lastEvent)-7*day)
		return fmt.Sprintf("submit >= %s and submit < %s and time >= %s and time < %s",
			stamp(lo), stamp(lo+7*day), stamp(lo), stamp(lo+7*day))
	}},
	{"failed_big", func(r *rand.Rand, f *facts) string {
		nodes := []int{1024, 2048, 4096, 8192}[r.Intn(4)]
		return fmt.Sprintf("exit != success and nodes >= %d and submit >= %s",
			nodes, stamp(between(r, f.firstSubmit, f.lastSubmit-30*day)))
	}},
	{"user_events", func(r *rand.Rand, f *facts) string {
		lo := between(r, f.firstEvent, f.lastEvent-7*day)
		return fmt.Sprintf("user == %q and time >= %s and time < %s",
			pick(r, f.users), stamp(lo), stamp(lo+7*day))
	}},
}

func between(r *rand.Rand, lo, hi int64) int64 { return lo + r.Int63n(hi-lo+1) }

func pick(r *rand.Rand, v []string) string { return v[r.Intn(len(v))] }

func stamp(u int64) string { return time.Unix(u, 0).UTC().Format("2006-01-02T15:04:05") }

// missStream returns the first n queries of the seeded miss stream. Every
// block of five holds each shape once, in a seeded order, and no canonical
// key repeats, so every request of a run misses the response cache. The
// stream is prefix-stable: a longer n extends it.
func missStream(f *facts, seed int64, n int) ([]query, error) {
	r := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([]query, 0, n)
	var order []int
	for len(out) < n {
		if len(order) == 0 {
			order = r.Perm(len(shapes))
		}
		q, err := drawUnique(r, f, order[0], seen)
		if err != nil {
			return nil, err
		}
		order = order[1:]
		out = append(out, q)
	}
	return out, nil
}

// hotSize is the number of distinct predicates cohort-hot cycles over,
// well below the response cache's default 1024 entries.
const hotSize = 64

// hotSet returns the seeded hot set: hotSize distinct predicates spread
// evenly over the shapes.
func hotSet(f *facts, seed int64) ([]query, error) {
	r := rand.New(rand.NewSource(seed ^ 0x5eed_face))
	seen := map[string]bool{}
	out := make([]query, 0, hotSize)
	for i := 0; i < hotSize; i++ {
		q, err := drawUnique(r, f, i%len(shapes), seen)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// drawUnique draws predicates of one shape until its canonical key is new.
func drawUnique(r *rand.Rand, f *facts, shape int, seen map[string]bool) (query, error) {
	for {
		where := shapes[shape].draw(r, f)
		expr, err := sel.Parse(where)
		if err != nil {
			return query{}, fmt.Errorf("generated predicate %q: %w", where, err)
		}
		canon := expr.String()
		if !seen[canon] {
			seen[canon] = true
			return query{where: where, canon: canon, shape: shape}, nil
		}
	}
}
