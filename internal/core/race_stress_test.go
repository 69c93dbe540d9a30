package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/raslog"
	"repro/internal/sel"
)

func mustParse(t *testing.T, where string) sel.Expr {
	t.Helper()
	e, err := sel.Parse(where)
	if err != nil {
		t.Fatalf("parse %q: %v", where, err)
	}
	return e
}

// This file is the concurrency contract for serving (DESIGN.md §15): a
// Dataset and everything it builds lazily — per-dimension bitmap indexes, compiled selections, the memoized whole-corpus profile,
// the filter key memo — must be safe to hammer from many goroutines,
// including the very first touch, where every par.Memo and the
// compiled-selection cache are under maximal contention. mirad relies on
// exactly this: N concurrent requests over one warm (or still-cold)
// Dataset.
//
// The tests run under the CI -race job; correctness is pinned by
// comparing every concurrent result against a sequentially computed
// reference on an identical Dataset.

// freshDataset builds a NEW Dataset over the shared test corpus, so all
// lazy state starts cold (the package-level dataset(t) is warm by the
// time most tests run).
func freshDataset(t *testing.T) *Dataset {
	t.Helper()
	_, c := dataset(t)
	d, err := NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRaceColdFirstTouch aims every goroutine at the lazy-construction
// paths of a completely cold Dataset at once: views, dimension indexes,
// full profile, pushdown profiles and index stats all race their first
// build. Several goroutines call IndexStats from cold, so its concurrent
// build of every dimension races the others and the single-dimension
// builds of the selections.
func TestRaceColdFirstTouch(t *testing.T) {
	d := freshDataset(t)
	ref := freshDataset(t)

	wheres := equivalencePredicates(t, ref)
	want := make([]*Cohort, len(wheres))
	for i, wh := range wheres {
		p, err := ref.FusedScanWhere(mustParse(t, wh), 1)
		if err != nil {
			t.Fatalf("reference %q: %v", wh, err)
		}
		want[i] = p
	}
	wantFull, err := ref.FusedScan(1)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := ref.IndexStats()

	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Interleave the access patterns so each lazy structure sees
			// concurrent first touches from several directions.
			switch w % 5 {
			case 0: // full fused scan
				p, err := d.FusedScan(2)
				if err != nil {
					t.Error(err)
					return
				}
				profileFields(t, fmt.Sprintf("worker %d FusedScan", w), p, wantFull)
			case 1: // predicate pushdown over every equivalence predicate
				for i, wh := range wheres {
					p, err := d.FusedScanWhere(mustParse(t, wh), 2)
					if err != nil {
						t.Errorf("worker %d %q: %v", w, wh, err)
						return
					}
					cohortFields(t, fmt.Sprintf("worker %d %q", w, wh), p, want[i])
				}
			case 2: // raw bitmap selections (separate cache entries per expr)
				for _, wh := range wheres {
					e := mustParse(t, wh)
					if _, err := d.SelectJobs(e); err != nil {
						// Event-domain (or cross-domain AND) predicates are
						// invalid for the job-only entry point; try the event
						// side, and accept both rejecting — the point here is
						// that errors stay deterministic under contention, not
						// that every predicate fits a single domain.
						d.SelectEvents(e)
					}
				}
			case 3: // views + full index inventory
				jv, ev := d.JobView(), d.EventView()
				if len(jv.Users) == 0 || len(ev.Sev) == 0 {
					t.Errorf("worker %d: empty view", w)
					return
				}
				if st := d.IndexStats(); len(st) == 0 {
					t.Errorf("worker %d: no index stats", w)
					return
				}
			case 4: // index stats alone, from cold
				if st := d.IndexStats(); !reflect.DeepEqual(st, wantStats) {
					t.Errorf("worker %d: IndexStats = %+v, want %+v", w, st, wantStats)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRaceWholeScanMemo makes the first FusedScan and FusedScanWhere
// calls on a cold Dataset from many goroutines at once: the whole-table
// memo they all read must be built exactly once, and every result must
// equal the sequential reference.
func TestRaceWholeScanMemo(t *testing.T) {
	ref := freshDataset(t)
	d := freshDataset(t)
	var builds atomic.Int32
	testHookWholeScan = func(got *Dataset) {
		if got == d {
			builds.Add(1)
		}
	}
	defer func() { testHookWholeScan = nil }()

	wheres := append([]string{""}, memoBranchPredicates(t, ref)...)
	wheres = append(wheres, "exit == system", "sev == FATAL", "user == nosuchuser")
	wantFull, err := ref.FusedScan(1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Cohort, len(wheres))
	for i, wh := range wheres {
		if wh == "" {
			continue
		}
		if want[i], err = ref.FusedScanWhere(mustParse(t, wh), 1); err != nil {
			t.Fatalf("reference %q: %v", wh, err)
		}
	}

	const workers = 24
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w % len(wheres)
			label := fmt.Sprintf("worker %d %q", w, wheres[i])
			if wheres[i] == "" {
				p, err := d.FusedScan(1 + w%3)
				if err != nil {
					t.Errorf("%s: %v", label, err)
					return
				}
				profileFields(t, label, p, wantFull)
				return
			}
			p, err := d.FusedScanWhere(mustParse(t, wheres[i]), 1+w%3)
			if err != nil {
				t.Errorf("%s: %v", label, err)
				return
			}
			cohortFields(t, label, p, want[i])
		}(w)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("whole-table memo built %d times, want 1", n)
	}
}

// TestRaceWarmQueryStorm hammers a pre-warmed Dataset with the mirad
// request mix: repeated pushdown scans over a small predicate set (the
// compiled-selection cache hot path), full scans, and stats reads.
// Results must stay bit-stable across goroutines and rounds.
func TestRaceWarmQueryStorm(t *testing.T) {
	d := freshDataset(t)
	d.IndexStats() // warm: builds views and every dimension index

	wheres := []string{
		"exit == system",
		"exit != success",
		"nodes >= 2048",
		"sev == FATAL",
		"dur > 3600 and exit == system",
	}
	want := make(map[string]*Cohort, len(wheres))
	for _, wh := range wheres {
		p, err := d.FusedScanWhere(mustParse(t, wh), 1)
		if err != nil {
			t.Fatalf("reference %q: %v", wh, err)
		}
		want[wh] = p
	}

	const workers = 12
	const rounds = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				wh := wheres[(w+r)%len(wheres)]
				p, err := d.FusedScanWhere(mustParse(t, wh), 2)
				if err != nil {
					t.Errorf("worker %d round %d %q: %v", w, r, wh, err)
					return
				}
				cohortFields(t, fmt.Sprintf("worker %d round %d %q", w, r, wh), p, want[wh])
				if r%2 == 0 {
					if _, err := d.FusedScan(2); err != nil {
						t.Errorf("worker %d round %d full scan: %v", w, r, err)
						return
					}
				}
				if st := d.IndexStats(); len(st) == 0 {
					t.Errorf("worker %d round %d: no index stats", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRaceSelectionCacheStampede drives many goroutines through the
// compiled-selection cache for ONE predicate on a cold Dataset: every
// caller must get the same cached bitmap (pointer-stable after the first
// compile) with no duplicate inserts or torn reads.
func TestRaceSelectionCacheStampede(t *testing.T) {
	d := freshDataset(t)
	e := mustParse(t, "exit == system or nodes >= 2048")

	const workers = 24
	bitmaps := make([]interface{}, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b, err := d.SelectJobs(e)
			if err != nil {
				t.Error(err)
				return
			}
			bitmaps[w] = b
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if bitmaps[w] != bitmaps[0] {
			t.Fatalf("worker %d got a different compiled bitmap than worker 0", w)
		}
	}
}

// TestRaceFilterKeyMemo drives the filter entry points of a cold Dataset
// from many goroutines at once, under different key configurations of both
// severities: the mutex-guarded key memo must build each configuration's
// keys once and every result must equal the reference fold.
func TestRaceFilterKeyMemo(t *testing.T) {
	d := freshDataset(t)
	recs := d.EventRecords()
	// One rule per key configuration: the memo's entries are what race.
	var rules []FilterRule
	for _, rule := range equivRules() {
		if rule.Window == 20*time.Minute {
			rules = append(rules, rule)
		}
	}
	want := make([][2][]Incident, len(rules))
	for i, rule := range rules {
		for s, sev := range []raslog.Severity{raslog.Fatal, raslog.Warn} {
			incidents, err := referenceFilterBySeverity(recs, sev, rule)
			if err != nil {
				t.Fatal(err)
			}
			want[i][s] = incidents
		}
	}

	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the rules from its own offset, so first
			// touches of one configuration come from several goroutines.
			for k := range rules {
				i := (k + w) % len(rules)
				fatals, err := d.FilterFatal(rules[i])
				if err != nil {
					t.Error(err)
					return
				}
				warns, err := d.FilterWarn(rules[i])
				if err != nil {
					t.Error(err)
					return
				}
				if diff := incidentsDiff(recs, fatals, want[i][0]) + incidentsDiff(recs, warns, want[i][1]); diff != "" {
					t.Errorf("worker %d rule %+v: filter differs from the reference: %s", w, rules[i], diff)
					return
				}
				if w%3 == 0 {
					sweep, err := d.FilterSweep(rules[i], []time.Duration{rules[i].Window}, 2)
					if err != nil {
						t.Error(err)
						return
					}
					if sweep[0].Incidents != len(want[i][0]) {
						t.Errorf("worker %d rule %+v: sweep %d incidents, reference %d",
							w, rules[i], sweep[0].Incidents, len(want[i][0]))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
