package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/sim"
	"repro/internal/stats"
)

// orderAnalyses pairs every analysis on the JobOrders layer with the walk
// it replaced (orders_oracle_test.go).
var orderAnalyses = []struct {
	name string
	got  func(*JobOrders) (any, error)
	want func(*Dataset) (any, error)
}{
	{"StructureSummary",
		func(o *JobOrders) (any, error) { return o.StructureSummary() },
		func(d *Dataset) (any, error) { return structureSummaryWalk(d) }},
	{"FailureByStructure/nodes",
		func(o *JobOrders) (any, error) { return o.FailureByStructure(DimNodes) },
		func(d *Dataset) (any, error) { return failureByStructureWalk(d, DimNodes) }},
	{"FailureByStructure/tasks",
		func(o *JobOrders) (any, error) { return o.FailureByStructure(DimTasks) },
		func(d *Dataset) (any, error) { return failureByStructureWalk(d, DimTasks) }},
	{"FailureByStructure/core-hours",
		func(o *JobOrders) (any, error) { return o.FailureByStructure(DimCoreHours) },
		func(d *Dataset) (any, error) { return failureByStructureWalk(d, DimCoreHours) }},
	{"FailureByStructure/runtime",
		func(o *JobOrders) (any, error) { return o.FailureByStructure(DimRuntime) },
		func(d *Dataset) (any, error) { return failureByStructureWalk(d, DimRuntime) }},
	{"ExecutionLengthCDFs",
		func(o *JobOrders) (any, error) {
			s, f := o.ExecutionLengthCDFs()
			return [2][]float64{s, f}, nil
		},
		func(d *Dataset) (any, error) {
			s, f := executionLengthCDFsWalk(d)
			return [2][]float64{s, f}, nil
		}},
	{"Scheduling",
		func(o *JobOrders) (any, error) { return o.Scheduling() },
		func(d *Dataset) (any, error) { return schedulingWalk(d) }},
	{"Resubmission",
		func(o *JobOrders) (any, error) { return o.Resubmission() },
		func(d *Dataset) (any, error) { return resubmissionWalk(d) }},
	{"IOBehavior",
		func(o *JobOrders) (any, error) { return o.d.IOBehavior() },
		func(d *Dataset) (any, error) { return ioBehaviorWalk(d) }},
}

// checkOrdersMatchWalks runs every analysis on one fresh JobOrders, in
// table order so later analyses reuse the orders earlier ones built, and
// requires the same error or the same bits as the walk.
func checkOrdersMatchWalks(t *testing.T, name string, d *Dataset) {
	t.Helper()
	o := NewJobOrders(d)
	for _, a := range orderAnalyses {
		got, gotErr := a.got(o)
		want, wantErr := a.want(d)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s %s: error %v, walk %v", name, a.name, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			continue
		}
		if diff := bitDiff(reflect.ValueOf(got), reflect.ValueOf(want), a.name); diff != "" {
			t.Errorf("%s: orders differ from the walk at %s", name, diff)
		}
	}
}

// TestJobOrdersMatchWalksOnCorpora compares on the package's 90-day
// corpus and on 30- and 150-day corpora.
func TestJobOrdersMatchWalksOnCorpora(t *testing.T) {
	d90, _ := dataset(t)
	checkOrdersMatchWalks(t, "90-day", d90)
	for _, days := range []int{30, 150} {
		cfg := sim.DefaultConfig()
		cfg.Days = days
		cfg.NumUsers = 2 * days
		cfg.NumProjects = days
		c, err := sim.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
		if err != nil {
			t.Fatal(err)
		}
		checkOrdersMatchWalks(t, fmt.Sprintf("%d-day", days), d)
	}
}

// advOptions shapes one adversarial job set.
type advOptions struct {
	users    int  // distinct users
	sizes    int  // distinct block sizes (1 or 2)
	outcomes bool // both outcomes; false = every job succeeds
	tiedIDs  bool // a user's jobs share one submit second, ids descending by row
}

// advDataset builds n jobs with heavy ties in every ranked column (submit
// second, wait, runtime including zero, nodes, tasks, I/O bytes and time),
// random sparse ids and rows shuffled out of id order.
func advDataset(t *testing.T, seed int64, n int, opt advOptions) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	ids := rng.Perm(10 * n)[:n]
	jobs := make([]joblog.Job, n)
	for i := range jobs {
		u := rng.Intn(opt.users)
		submit := base.Add(time.Duration(rng.Intn(20)) * time.Second)
		id := int64(ids[i] + 1)
		if opt.tiedIDs {
			submit = base.Add(time.Duration(u) * time.Hour)
			id = int64(10*n - i)
		}
		// Waits tie heavily; one job in seven starts before its submit,
		// which Job.Validate rejects but a log may still hold.
		start := submit.Add(time.Duration(rng.Intn(3)) * time.Minute)
		if rng.Intn(7) == 0 {
			start = submit.Add(-30 * time.Second)
		}
		end := start.Add(time.Duration(rng.Intn(4)) * 90 * time.Second)
		exit := 0
		if opt.outcomes && rng.Intn(3) == 0 {
			exit = []int{1, 2, 134, 137}[rng.Intn(4)]
		}
		jobs[i] = joblog.Job{
			ID: id, User: fmt.Sprintf("u%d", u), Project: "p", Queue: "q",
			Submit: submit, Start: start, End: end,
			WalltimeReq: time.Duration(1+rng.Intn(3)) * 5 * time.Minute,
			Nodes:       512 << rng.Intn(opt.sizes), RanksPerNode: 16, NumTasks: 1 + rng.Intn(3),
			ExitStatus: exit,
		}
	}
	rng.Shuffle(n, func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	var io []iolog.Record
	for i := range jobs {
		if rng.Intn(2) == 0 {
			io = append(io, iolog.Record{
				JobID: jobs[i].ID, BytesRead: int64(rng.Intn(3)) << 20, BytesWritten: int64(rng.Intn(2)) << 30,
				IOTime: time.Duration(rng.Intn(3)) * 1500 * time.Millisecond,
			})
		}
	}
	d, err := NewDataset(jobs, nil, nil, io)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestJobOrdersMatchWalksAdversarial(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  advOptions
	}{
		{"shuffled", advOptions{users: 5, sizes: 2, outcomes: true}},
		{"tied-submit-ids-reversed", advOptions{users: 4, sizes: 2, outcomes: true, tiedIDs: true}},
		{"one-user", advOptions{users: 1, sizes: 2, outcomes: true}},
		{"one-outcome", advOptions{users: 3, sizes: 2}},
		{"single-size", advOptions{users: 3, sizes: 1, outcomes: true}},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, n := range []int{1, 2, 40, 3000} {
				d := advDataset(t, seed, n, c.opt)
				checkOrdersMatchWalks(t, fmt.Sprintf("%s seed %d n %d", c.name, seed, n), d)
			}
		}
	}
}

// TestFailureByStructureNonPositive pins the log-bucket fix: a job with
// zero runtime (valid under Job.Validate) used to set the lower edge to the
// smallest subnormal, so every edge above it overflowed to +Inf. The edges
// now start at the smallest positive value and the zero job counts in the
// first bucket.
func TestFailureByStructureNonPositive(t *testing.T) {
	outcomes := make([]bool, 40)
	for i := range outcomes {
		outcomes[i] = i%3 == 0
	}
	jobs := chainJobs(outcomes, time.Hour)
	for i := range jobs {
		jobs[i].End = jobs[i].Start.Add(time.Duration(i+1) * 7 * time.Minute)
	}
	jobs[5].End = jobs[5].Start
	if err := jobs[5].Validate(); err != nil {
		t.Fatalf("zero-runtime job must be valid: %v", err)
	}
	d, err := NewDataset(jobs, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, dim := range []StructureDim{DimRuntime, DimCoreHours} {
		res, err := NewJobOrders(d).FailureByStructure(dim)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i, b := range res.Buckets {
			if math.IsInf(b.Lo, 0) || math.IsInf(b.Hi, 0) || !(b.Lo < b.Hi) {
				t.Fatalf("%s bucket %d is [%v, %v)", dim, i, b.Lo, b.Hi)
			}
			total += b.Jobs
		}
		if total != len(jobs) {
			t.Errorf("%s buckets hold %d jobs, want %d", dim, total, len(jobs))
		}
		// The smallest positive runtime is job 0's 7 minutes; the first
		// bucket starts there and also holds the zero-runtime job.
		wantLo := (7 * time.Minute).Hours()
		if dim == DimCoreHours {
			wantLo *= 512 * 16
		}
		if first := res.Buckets[0]; first.Lo != wantLo || first.Jobs < 2 {
			t.Errorf("%s first bucket [%v, %v) holds %d jobs, want lo %v and ≥2 jobs", dim, first.Lo, first.Hi, first.Jobs, wantLo)
		}
	}
}

// TestFailureByStructureNearlyEqual covers log buckets over values an ulp
// apart, where rounding makes several edges equal: the sorted walk must
// bucket each value as the walk's binary search does.
func TestFailureByStructureNearlyEqual(t *testing.T) {
	jobs := chainJobs([]bool{true, false, false, true, false, true}, time.Hour)
	for i := range jobs {
		// 1 node × 3 s and 3 nodes × 1 s are core-hours one ulp apart.
		nodes, secs := 1, 3
		if i%2 == 1 {
			nodes, secs = 3, 1
		}
		jobs[i].Nodes = nodes
		jobs[i].End = jobs[i].Start.Add(time.Duration(secs) * time.Second)
	}
	d, err := NewDataset(jobs, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkOrdersMatchWalks(t, "ulps apart", d)
	res, err := NewJobOrders(d).FailureByStructure(DimCoreHours)
	if err != nil {
		t.Fatal(err)
	}
	if res.Buckets[0].Lo != res.Buckets[1].Lo {
		t.Fatalf("edges %v are distinct; the case needs equal edges", res.Buckets)
	}
}

// TestJobOrdersConcurrent runs every analysis from several goroutines on
// one JobOrders: each entry is built once, and all callers see the walk's
// bits.
func TestJobOrdersConcurrent(t *testing.T) {
	d := advDataset(t, 9, 2000, advOptions{users: 6, sizes: 2, outcomes: true})
	o := NewJobOrders(d)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range orderAnalyses {
				a := orderAnalyses[(k+g)%len(orderAnalyses)]
				got, err := a.got(o)
				want, _ := a.want(d)
				if err != nil {
					errs <- fmt.Sprintf("%s: %v", a.name, err)
					continue
				}
				if diff := bitDiff(reflect.ValueOf(got), reflect.ValueOf(want), a.name); diff != "" {
					errs <- diff
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// bitDiff returns the path of the first difference between a and b, or ""
// when they are deeply equal with every float compared bit for bit, except
// that NaN equals NaN.
func bitDiff(a, b reflect.Value, path string) string {
	if a.IsValid() != b.IsValid() || (a.IsValid() && a.Type() != b.Type()) {
		return path
	}
	if !a.IsValid() {
		return ""
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			return fmt.Sprintf("%s (%v vs %v)", path, x, y)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s (%d vs %d)", path, a.Int(), b.Int())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s (%q vs %q)", path, a.String(), b.String())
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		return bitDiff(a.Elem(), b.Elem(), path)
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (len %d vs %d)", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (len %d vs %d)", path, a.Len(), b.Len())
		}
		iter := a.MapRange()
		for iter.Next() {
			if d := bitDiff(iter.Value(), b.MapIndex(iter.Key()), fmt.Sprintf("%s[%v]", path, iter.Key())); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	default:
		panic("bitDiff: unhandled kind " + a.Kind().String())
	}
	return ""
}

// TestIndicatorRanksMatchRanks pins failRank's counting ranks to
// stats.Ranks of the 0/1 failure indicator bit for bit, including the
// single-group inputs (no failure, all failures) and the empty one.
func TestIndicatorRanksMatchRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mixed := make([]uint8, 1001)
	for i := range mixed {
		if rng.Intn(3) == 0 {
			mixed[i] = uint8(1 + rng.Intn(joblog.NumFamilies-1))
		}
	}
	for name, fam := range map[string][]uint8{
		"empty":    {},
		"one":      {3},
		"all zero": make([]uint8, 17),
		"all one":  {1, 2, 8, 7, 1, 1, 4},
		"mixed":    mixed,
	} {
		fail := make([]float64, len(fam))
		for i, f := range fam {
			if f != 0 {
				fail[i] = 1
			}
		}
		got, want := indicatorRanks(fam), stats.Ranks(fail)
		if len(got) != len(want) {
			t.Fatalf("%s: %d ranks, stats.Ranks %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: rank %d is %v, stats.Ranks %v", name, i, got[i], want[i])
			}
		}
	}
}
