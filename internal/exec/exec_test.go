package exec

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

func TestMapOrderedResults(t *testing.T) {
	n := 64
	got, err := Map(8, n, func(i int) (int, error) {
		// Jitter completion order so ordering cannot come for free.
		time.Sleep(time.Duration((n-i)%7) * time.Microsecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("len = %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapParallelMatchesSerial(t *testing.T) {
	fn := func(i int) (uint64, error) {
		return uint64(i+42) * 0x9e3779b97f4a7c15, nil // any pure function of the index
	}
	serial, err := Map(1, 100, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16} {
		par, err := Map(w, 100, fn)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: result %d = %x, serial %x", w, i, par[i], serial[i])
			}
		}
	}
}

func TestMapErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := Map(4, 20, func(i int) (int, error) {
		if i == 3 {
			return 0, sentinel
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("error %v does not wrap sentinel", err)
	}
	if !strings.Contains(err.Error(), "job 3") {
		t.Fatalf("error %q does not name the failing job", err)
	}
}

func TestMapErrorSkipsUnstartedJobs(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(1, 1000, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, fmt.Errorf("fail fast")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("ran %d jobs after failure, want 1", got)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, max atomic.Int64
	_, err := Map(workers, 50, func(i int) (int, error) {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > workers {
		t.Fatalf("observed %d concurrent jobs, want <= %d", m, workers)
	}
}

// TestMapCtxCancelStopsDispatch: cancelling mid-sweep lets running jobs
// finish but starts nothing new, and the error carries the cancel cause.
func TestMapCtxCancelStopsDispatch(t *testing.T) {
	cause := errors.New("client hung up")
	ctx, cancel := context.WithCancelCause(context.Background())

	var ran atomic.Int64
	started := make(chan struct{})
	var once atomic.Bool
	go func() {
		<-started
		cancel(cause)
	}()
	_, err := MapCtx(ctx, 2, 1000, func(i int) (int, error) {
		ran.Add(1)
		if once.CompareAndSwap(false, true) {
			close(started)
		}
		<-ctx.Done() // jobs in flight when the cancel lands
		return i, nil
	})

	if err == nil {
		t.Fatal("cancelled MapCtx reported success")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("error %v does not carry the cancel cause", err)
	}
	// Only the jobs that were already in flight may have run: with 2
	// workers, at most 2 of the 1000.
	if got := ran.Load(); got > 2 {
		t.Fatalf("%d jobs ran after cancellation, want <= 2 (the in-flight ones)", got)
	}
}

// TestMapCtxPreCancelled: a context cancelled before the call runs no
// jobs at all.
func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := MapCtx(ctx, 4, 100, func(i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran under a pre-cancelled context", ran.Load())
	}
}

// TestMapCtxBackgroundMatchesMap: Map is exactly MapCtx under a
// background context.
func TestMapCtxBackgroundMatchesMap(t *testing.T) {
	fn := func(i int) (int, error) { return i * 3, nil }
	a, errA := Map(4, 50, fn)
	b, errB := MapCtx(context.Background(), 4, 50, fn)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Map and MapCtx diverge at %d", i)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("Map(_, 0) = %v, %v", got, err)
	}
}

func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestProgressSerializesAndNilSafe(t *testing.T) {
	Progress(nil)("ignored") // must not panic

	var lines []string
	p := Progress(func(s string) { lines = append(lines, s) })
	if _, err := Map(8, 100, func(i int) (struct{}, error) {
		p(fmt.Sprintf("job %d", i))
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 100 {
		t.Fatalf("recorded %d progress lines, want 100", len(lines))
	}
}
