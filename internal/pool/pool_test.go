package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nsync/internal/resilience"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 8, 200} {
		out, err := Map(context.Background(), workers, items, func(_ context.Context, i, item int) (int, error) {
			return item * item, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapFirstErrorCancels(t *testing.T) {
	items := make([]int, 50)
	var started atomic.Int64
	boom := errors.New("boom")
	_, err := Map(context.Background(), 4, items, func(ctx context.Context, i, _ int) (int, error) {
		started.Add(1)
		if i == 3 {
			return 0, boom
		}
		select {
		case <-ctx.Done():
		case <-time.After(50 * time.Millisecond):
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Cancellation must have prevented most of the 50 items from starting:
	// only items claimed before the failing worker cancelled can run.
	if n := started.Load(); n >= 50 {
		t.Errorf("all %d items ran despite early error", n)
	}
}

func TestMapHonorsParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 2, []int{1, 2, 3}, func(_ context.Context, _, item int) (int, error) {
		return item, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), workers, make([]int, 64), func(_ context.Context, _, _ int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestMapEmptyAndSerialPath(t *testing.T) {
	out, err := Map(context.Background(), 4, nil, func(_ context.Context, _ int, _ int) (int, error) {
		t.Fatal("f called for empty input")
		return 0, nil
	})
	if err != nil || out != nil {
		t.Fatalf("empty input: out=%v err=%v", out, err)
	}
	// Serial path stops at the first error without visiting later items.
	visited := 0
	_, err = Map(context.Background(), 1, []int{0, 1, 2}, func(_ context.Context, i, _ int) (int, error) {
		visited++
		if i == 1 {
			return 0, fmt.Errorf("stop")
		}
		return 0, nil
	})
	if err == nil || visited != 2 {
		t.Fatalf("serial error path: visited=%d err=%v", visited, err)
	}
}

func TestMapRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), workers, []int{0, 1, 2, 3}, func(_ context.Context, i, _ int) (int, error) {
			if i == 2 {
				panic("kaboom in worker")
			}
			return i, nil
		})
		var pe *resilience.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *resilience.PanicError", workers, err)
		}
		if pe.Value != "kaboom in worker" {
			t.Errorf("workers=%d: panic value = %v", workers, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "pool_test") {
			t.Errorf("workers=%d: stack does not mention the panicking test func:\n%s", workers, pe.Stack)
		}
		if !strings.Contains(err.Error(), "kaboom in worker") || !strings.Contains(err.Error(), "goroutine") {
			t.Errorf("workers=%d: Error() should carry value and stack, got %q", workers, err.Error())
		}
	}
}

func TestMapDeterministicFirstError(t *testing.T) {
	// All items fail concurrently (a barrier holds every item in flight until
	// all have started); the lowest-indexed error must win regardless of
	// which worker loses the race, on every iteration.
	const n = 8
	errs := make([]error, n)
	for i := range errs {
		errs[i] = fmt.Errorf("item %d failed", i)
	}
	for iter := 0; iter < 50; iter++ {
		var barrier sync.WaitGroup
		barrier.Add(n)
		_, err := Map(context.Background(), n, make([]int, n), func(_ context.Context, i, _ int) (int, error) {
			barrier.Done()
			barrier.Wait()
			return 0, errs[i]
		})
		if !errors.Is(err, errs[0]) {
			t.Fatalf("iter %d: err = %v, want item 0's error", iter, err)
		}
	}
}

func TestMapCancellationPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started sync.WaitGroup
	started.Add(4)
	done := make(chan error, 1)
	go func() {
		_, err := Map(ctx, 4, make([]int, 64), func(ctx context.Context, i, _ int) (int, error) {
			started.Done()
			<-ctx.Done()
			return 0, ctx.Err()
		})
		done <- err
	}()
	started.Wait()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Map did not return promptly after cancellation")
	}
}

func TestResolve(t *testing.T) {
	if got := Resolve(3); got != 3 {
		t.Errorf("Resolve(3) = %d", got)
	}
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(0) = %d, want GOMAXPROCS", got)
	}
}
