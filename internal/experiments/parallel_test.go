package experiments

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestRunAllMatchesSerial is the end-to-end determinism contract: two
// environments generated at different worker counts, with the full suite
// fanned out at different worker counts, must produce metric-for-metric
// identical results. NaN compares equal to NaN here — "undefined" is a
// deterministic outcome too. The pass's shared job orders must not outlive
// it.
func TestRunAllMatchesSerial(t *testing.T) {
	cfg := sim.SmallConfig()
	serialEnv, err := NewEnv(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallelEnv, err := NewEnv(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunAll(serialEnv, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAll(parallelEnv, 8)
	if err != nil {
		t.Fatal(err)
	}
	if serialEnv.cache.orders != nil || parallelEnv.cache.orders != nil {
		t.Error("RunAll kept its job orders after the pass")
	}
	if len(serial) != len(parallel) || len(serial) != len(All()) {
		t.Fatalf("result counts: serial %d, parallel %d, suite %d", len(serial), len(parallel), len(All()))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.ID != p.ID || s.ID != All()[i].ID {
			t.Fatalf("result %d out of order: serial %s, parallel %s, suite %s", i, s.ID, p.ID, All()[i].ID)
		}
		if len(s.Metrics) != len(p.Metrics) {
			t.Errorf("%s: metric counts differ: %d vs %d", s.ID, len(s.Metrics), len(p.Metrics))
			continue
		}
		for k, sv := range s.Metrics {
			pv, ok := p.Metrics[k]
			if !ok {
				t.Errorf("%s: metric %q missing from parallel run", s.ID, k)
				continue
			}
			if sv != pv && !(math.IsNaN(sv) && math.IsNaN(pv)) {
				t.Errorf("%s: metric %q = %v parallel, %v serial", s.ID, k, pv, sv)
			}
		}
		if len(s.Tables) != len(p.Tables) || len(s.Figures) != len(p.Figures) {
			t.Errorf("%s: artifact counts differ (tables %d vs %d, figures %d vs %d)",
				s.ID, len(p.Tables), len(s.Tables), len(p.Figures), len(s.Figures))
		}
	}
}
