package pack_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pack"
)

// TestRaceUnmarshal decodes one image from 8 goroutines at once. Each
// Unmarshal runs its own events and job-side goroutines, so under -race
// this checks that the 16 decoders share nothing but the read-only image;
// every Dataset must equal the reference decoded alone at GOMAXPROCS 1.
func TestRaceUnmarshal(t *testing.T) {
	image := pack.Marshal(generatedDataset(t))
	prev := runtime.GOMAXPROCS(1)
	ref, err := pack.Unmarshal(image)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}

	const decoders = 8
	got := make([]*core.Dataset, decoders)
	errs := make([]error, decoders)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g], errs[g] = pack.Unmarshal(image)
		}(g)
	}
	close(start)
	wg.Wait()
	for g, d := range got {
		if errs[g] != nil {
			t.Fatalf("decoder %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(d, ref) {
			t.Fatalf("decoder %d: dataset differs from the sequential decode", g)
		}
	}
}
