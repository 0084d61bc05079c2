package par

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		out, err := Map(context.Background(), workers, 50, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 50 {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("got %v, %v", out, err)
	}
}

func TestMapNilContext(t *testing.T) {
	out, err := Map(nil, 4, 3, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || len(out) != 3 {
		t.Fatalf("got %v, %v", out, err)
	}
}

func TestMapBoundsWorkers(t *testing.T) {
	const workers = 3
	var active, peak atomic.Int64
	_, err := Map(context.Background(), workers, 64, func(_ context.Context, i int) (int, error) {
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		active.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds pool size %d", p, workers)
	}
}

func TestMapFirstErrorIsLowestIndex(t *testing.T) {
	// Several items fail; the reported error must be the lowest-index one —
	// what a serial loop would have hit first — no matter the interleaving.
	for trial := 0; trial < 20; trial++ {
		_, err := Map(context.Background(), 8, 40, func(_ context.Context, i int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("item %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("trial %d: got error %v, want item 3", trial, err)
		}
	}
}

// TestMapFailureSparesLowerSiblings pins the other half of the
// lowest-index contract: a failure cancels only the items above it. Item
// 1 fails while item 0 is still in flight and item 2 blocks until it is
// cancelled; item 0 then reports its own context's state. Had the pool
// cancelled item 0 too, its context.Canceled — lower index — would mask
// item 1's error, which a serial loop would have returned. The ordering
// runs on channels alone, so the outcome does not depend on the schedule
// or on GOMAXPROCS; item 0's bounded wait turns a pool that never cancels
// item 2 into a failure rather than a hang.
func TestMapFailureSparesLowerSiblings(t *testing.T) {
	ctx, abort := context.WithCancel(context.Background())
	defer abort()
	errItem1 := errors.New("item 1 failed")
	errNotCancelled := errors.New("item 2 was never cancelled")
	started2 := make(chan struct{})
	cancelled2 := make(chan struct{})
	_, err := Map(ctx, 3, 3, func(ctx context.Context, i int) (int, error) {
		switch i {
		case 0:
			select {
			case <-cancelled2:
				return 0, ctx.Err()
			case <-time.After(10 * time.Second):
				// Release items 1 and 2 through the caller's context so
				// Map returns.
				abort()
				return 0, errNotCancelled
			}
		case 1:
			select {
			case <-started2:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			return 0, errItem1
		default:
			close(started2)
			<-ctx.Done()
			close(cancelled2)
			return 0, ctx.Err()
		}
	})
	if !errors.Is(err, errItem1) {
		t.Fatalf("Map returned %v, want item 1's error %q", err, errItem1)
	}
}

func TestMapCancellationStopsWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	var once sync.Once
	_, err := Map(ctx, 2, 10000, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		once.Do(cancel)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := ran.Load(); n > 100 {
		t.Fatalf("ran %d items after cancellation", n)
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	if err := ForEach(context.Background(), 4, 100, func(_ context.Context, i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestSweep(t *testing.T) {
	points := []float64{1, 2, 3, 4.5}
	out, err := Sweep(context.Background(), 4, points, func(_ context.Context, p float64) (float64, error) {
		return 2 * p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		if out[i] != 2*p {
			t.Fatalf("out[%d] = %v", i, out[i])
		}
	}
}

func TestGrid(t *testing.T) {
	rows := []int{10, 20, 30}
	cols := []int{1, 2, 3, 4}
	out, err := Grid(context.Background(), 8, rows, cols, func(_ context.Context, a, b int) (int, error) {
		return a + b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(rows) {
		t.Fatalf("got %d rows", len(out))
	}
	for i, r := range rows {
		if len(out[i]) != len(cols) {
			t.Fatalf("row %d has %d cols", i, len(out[i]))
		}
		for j, c := range cols {
			if out[i][j] != r+c {
				t.Fatalf("out[%d][%d] = %d, want %d", i, j, out[i][j], r+c)
			}
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(5) != 5 {
		t.Error("positive count not honored")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("non-positive count must resolve to at least 1")
	}
}

// TestMapParallelMatchesSerial is the package-level determinism check: the
// same fn over the same inputs yields identical output slices at any pool
// size.
func TestMapParallelMatchesSerial(t *testing.T) {
	fn := func(_ context.Context, i int) (float64, error) {
		v := float64(i)
		for k := 0; k < 100; k++ {
			v = v*1.0000001 + 0.5
		}
		return v, nil
	}
	serial, err := Map(context.Background(), 1, 200, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16} {
		parallel, err := Map(context.Background(), w, 200, fn)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("workers=%d: index %d differs: %v vs %v", w, i, serial[i], parallel[i])
			}
		}
	}
}
