package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 1000
		hits := make([]int32, n)
		err := ForEach(context.Background(), n, workers, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	// Every other task takes a millisecond, so the 999 of them need at
	// least ~250 ms on 4 workers. Task 3 is among the first four
	// dispatched; its error must stop dispatch long before the rest run,
	// however the scheduler interleaves the workers.
	err := ForEach(context.Background(), 1000, 4, func(i int) error {
		calls.Add(1)
		if i == 3 {
			return fmt.Errorf("task %d: %w", i, boom)
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want wrapped boom", err)
	}
	// Cancellation must prevent most of the remaining 1000 tasks.
	if c := calls.Load(); c == 1000 {
		t.Errorf("error did not cancel remaining work (%d calls)", c)
	}
}

func TestForEachPanicCaptured(t *testing.T) {
	err := ForEach(context.Background(), 8, 4, func(i int) error {
		if i == 2 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not propagated as error: %v", err)
	}
	if !strings.Contains(err.Error(), "par_test.go") {
		t.Errorf("error lacks stack trace: %v", err)
	}
}

func TestForEachSerialPanicCaptured(t *testing.T) {
	err := ForEach(context.Background(), 4, 1, func(i int) error {
		panic("serial kaboom")
	})
	if err == nil || !strings.Contains(err.Error(), "serial kaboom") {
		t.Fatalf("serial panic not captured: %v", err)
	}
}

func TestForEachContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	started := make(chan struct{}, 1)
	go func() {
		<-started
		cancel()
	}()
	err := ForEach(ctx, 1_000_000, 2, func(i int) error {
		if calls.Add(1) == 1 {
			started <- struct{}{}
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if c := calls.Load(); c == 1_000_000 {
		t.Error("cancellation did not stop dispatch")
	}
}

func TestForEachPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := ForEach(ctx, 10, 1, func(i int) error {
		called = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
	if called {
		t.Error("fn ran under a cancelled context in serial mode")
	}
}

func TestMapOrderAndValues(t *testing.T) {
	items := make([]int, 500)
	for i := range items {
		items[i] = i * 3
	}
	out, err := Map(context.Background(), items, 8, func(i, v int) (string, error) {
		return fmt.Sprintf("%d:%d", i, v), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range out {
		if want := fmt.Sprintf("%d:%d", i, i*3); s != want {
			t.Fatalf("slot %d = %q, want %q", i, s, want)
		}
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(context.Background(), []int{1, 2, 3}, 2, func(i, v int) (int, error) {
		if v == 2 {
			return 0, boom
		}
		return v, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if out != nil {
		t.Errorf("partial results returned on error: %v", out)
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestForEachBoundsWorkers(t *testing.T) {
	// With workers=2 the number of concurrently running tasks must never
	// exceed 2.
	var cur, max atomic.Int32
	err := ForEach(context.Background(), 200, 2, func(i int) error {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > 2 {
		t.Errorf("observed %d concurrent tasks, bound is 2", m)
	}
}
