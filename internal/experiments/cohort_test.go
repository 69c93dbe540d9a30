package experiments

import (
	"fmt"
	"reflect"
	"testing"

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

// TestCohortProfileMatchesCore checks the accessor is a façade over
// core.FusedScanWhere: the same Cohort for any spelling of one predicate.
func TestCohortProfileMatchesCore(t *testing.T) {
	e := env(t)
	user := e.D.JobView().Users[0]
	where := fmt.Sprintf("user == %s", user)

	want, err := e.D.FusedScanWhere(mustParse(t, where), e.Parallelism)
	if err != nil {
		t.Fatal(err)
	}
	if want.Summary.Jobs == 0 {
		t.Errorf("cohort %q selected no jobs", where)
	}
	for _, spelling := range []string{where, fmt.Sprintf("(user == %q)", user)} {
		p, err := e.CohortProfileExpr(mustParse(t, spelling))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, want) {
			t.Errorf("%q: Cohort differs:\n  got  %+v\n  want %+v", spelling, p, want)
		}
	}
}

// TestCohortProfileNilAndErrors pins the degenerate paths: nil predicate
// serves the shared whole-corpus profile's Cohort; a bad predicate reports the
// parse error (sel.Parse) or the compile error (CohortProfileExpr).
func TestCohortProfileNilAndErrors(t *testing.T) {
	e := env(t)
	p, err := e.CohortProfileExpr(nil)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := e.fusedProfile()
	if err != nil {
		t.Fatal(err)
	}
	if p != &whole.Cohort {
		t.Error("nil predicate did not serve the shared FusedScan profile")
	}
	if _, err := sel.Parse("user =="); err == nil {
		t.Error("syntax error was not reported")
	}
	if _, err := e.CohortProfileExpr(mustParse(t, "bogus == 1")); err == nil {
		t.Error("unknown column was not reported")
	}
}

// TestCohortProfileLegacyEquivalence checks pushdown against the reference
// cohort path, materialize-then-scan — the experiments-level mirror of the
// core equivalence suite.
func TestCohortProfileLegacyEquivalence(t *testing.T) {
	e := env(t)
	for _, where := range []string{
		"exit != success and nodes >= 1024",
		"sev == FATAL",
	} {
		got, err := e.CohortProfileExpr(mustParse(t, where))
		if err != nil {
			t.Fatal(err)
		}
		md, err := e.D.MaterializeWhere(mustParse(t, where))
		if err != nil {
			t.Fatal(err)
		}
		want, err := md.FusedScan(e.Parallelism)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Summary, want.Summary) {
			t.Errorf("%q: Summary differs:\n  got  %+v\n  want %+v", where, got.Summary, want.Summary)
		}
		if !reflect.DeepEqual(got.Exit, want.Exit) {
			t.Errorf("%q: Exit tally differs", where)
		}
		if !reflect.DeepEqual(got.UserGroups, want.UserGroups) {
			t.Errorf("%q: UserGroups differ", where)
		}
	}
}
