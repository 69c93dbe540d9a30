package experiments

import (
	"reflect"
	"testing"
)

func TestTakeaways(t *testing.T) {
	ts, err := Takeaways(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 22 {
		t.Fatalf("got %d takeaways, want 22", len(ts))
	}
	seen := map[string]bool{}
	for i, tk := range ts {
		if tk.ID != i+1 {
			t.Errorf("takeaway %d has id %d", i, tk.ID)
		}
		if tk.Text == "" || tk.Tag == "" {
			t.Errorf("takeaway %d empty", tk.ID)
		}
		if seen[tk.Tag] {
			t.Errorf("duplicate tag %s", tk.Tag)
		}
		seen[tk.Tag] = true
	}
}

// TestTakeawaysInsidePass checks the takeaways read the same numbers when
// they follow RunAll inside one Pass, reusing the suite's memos and job
// orders, as when they run alone on a fresh Env.
func TestTakeawaysInsidePass(t *testing.T) {
	c := envCorpus(t)
	e := NewEnvFromDataset(freshDataset(t, c))
	release := e.Pass()
	if _, err := RunAll(e, 0); err != nil {
		t.Fatal(err)
	}
	got, err := Takeaways(e)
	release()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Takeaways(NewEnvFromDataset(freshDataset(t, c)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("takeaways after RunAll in a pass differ from a fresh Env's:\n got  %+v\n want %+v", got, want)
	}
}
