package par

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMemoBuildsOnceUnderConcurrency(t *testing.T) {
	var (
		m      Memo[*int]
		builds atomic.Int32
		start  = make(chan struct{})
		wg     sync.WaitGroup
	)
	const callers = 16
	got := make([]*int, callers)
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		g := g
		go func() {
			defer wg.Done()
			<-start
			v, err := m.Get(func() (*int, error) {
				builds.Add(1)
				return new(int), nil
			})
			if err != nil {
				t.Error(err)
			}
			got[g] = v
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	for g, v := range got {
		if v == nil || v != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", g, v, got[0])
		}
	}
}

func TestMemoKeepsBuildError(t *testing.T) {
	var m Memo[int]
	boom := errors.New("boom")
	builds := 0
	build := func() (int, error) {
		builds++
		return 7, boom
	}
	for call := 0; call < 3; call++ {
		v, err := m.Get(build)
		if !errors.Is(err, boom) || v != 7 {
			t.Fatalf("call %d: got (%d, %v), want (7, boom)", call, v, err)
		}
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
}

func TestMemoWarmGetAllocatesNothing(t *testing.T) {
	var m Memo[[]int]
	n := 8
	get := func() { _, _ = m.Get(func() ([]int, error) { return make([]int, n), nil }) }
	get()
	if avg := testing.AllocsPerRun(100, get); avg != 0 {
		t.Fatalf("warm Get allocates %.1f times per call, want 0", avg)
	}
}
