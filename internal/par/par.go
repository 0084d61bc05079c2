// Package par is the deterministic parallel-execution layer every
// compute-bound stage of the flow runs through: full-chip OPC rows,
// library characterization, the pitch/defocus/dose sweeps and the Monte
// Carlo trials.
//
// Design rules, enforced here so callers don't have to re-invent them:
//
//   - Bounded worker pool. Work fans out over at most `workers`
//     goroutines (0 or negative means runtime.GOMAXPROCS(0)); a single
//     worker degenerates to an inline serial loop with no goroutines.
//
//   - Index-ordered collection. Results land at their input index, so
//     parallel output is bit-identical to serial output regardless of
//     completion order. Determinism is a contract, not an accident: a
//     parallel run of any stage must produce the same bytes as a serial
//     run (see determinism_test.go at the repo root).
//
//   - First-error cancellation. The reported error is the one with the
//     LOWEST input index — exactly the error a serial loop would have hit
//     first. Each worker runs under its own context derived from the
//     caller's, and a failure at index i cancels only the workers holding
//     items above i, so those siblings can bail early. Siblings below i —
//     items a serial loop would have finished first — run to their real
//     outcome under the caller's context, never observing the pool's own
//     cancellation. No item above the failing index is claimed after the
//     failure; cancelling the caller's context stops every worker.
//
//   - Panic containment. A panicking item never kills the process or
//     leaks a deadlocked pool: the panic is recovered at the worker
//     boundary and converted to a *fault.Panic error (worker index, item
//     index, recovered value, stack) that flows through the normal
//     lowest-index-error machinery — so a panic at item 7 and a returned
//     error at item 7 are indistinguishable to callers, and siblings
//     above it are cancelled either way. This is the only place in the
//     tree allowed to call recover (enforced by svlint's nakedrecover
//     analyzer).
package par

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"svtiming/internal/fault"
	"svtiming/internal/obs"
)

// poolMetrics are the pool's per-run instruments, resolved once per
// Map/MapAll call from the registry carried in the context (see
// obs.NewContext). Every handle is nil (a no-op) when no registry is
// attached, so the uninstrumented hot path pays one pointer test per
// item.
type poolMetrics struct {
	started   *obs.Counter
	completed *obs.Counter
	panics    *obs.Counter
	perWorker *obs.Histogram
}

// workerTaskBuckets are the per-worker occupancy histogram bounds:
// tasks executed by one worker over one pool run.
var workerTaskBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

func metricsFrom(ctx context.Context) poolMetrics {
	reg := obs.FromContext(ctx)
	if !reg.Enabled() {
		return poolMetrics{}
	}
	return poolMetrics{
		started:   reg.Counter("par_tasks_started"),
		completed: reg.Counter("par_tasks_completed"),
		panics:    reg.Counter("par_panics_contained"),
		perWorker: reg.Histogram("par_worker_tasks", workerTaskBuckets),
	}
}

// runItem executes one item through the panic guard, recording task and
// containment counts (methods cannot be generic, hence the free
// function).
func runItem[T any](m poolMetrics, ctx context.Context, worker, i int, fn func(ctx context.Context, i int) (T, error)) (T, error) {
	m.started.Inc()
	v, err := protect(ctx, worker, i, fn)
	if _, contained := err.(*fault.Panic); contained {
		m.panics.Inc()
	}
	m.completed.Inc()
	return v, err
}

// protect runs fn(ctx, i), converting a panic into a *fault.Panic error.
// worker is the pool goroutine index, or -1 on the inline serial path.
func protect[T any](ctx context.Context, worker, i int, fn func(ctx context.Context, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &fault.Panic{Worker: worker, Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// Workers resolves a requested worker count: n if positive, otherwise
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(ctx, i) for i in [0, n) across a bounded worker pool and
// returns the results in index order. On error it returns the
// lowest-index error (the one a serial loop would report) and cancels the
// contexts of still-running siblings above the failing index; siblings
// below it keep running under the caller's context, so an error of their
// own still wins. A nil ctx means Background.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	m := metricsFrom(ctx)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			v, err := runItem(m, ctx, -1, i, fn)
			if err != nil {
				return out, err
			}
			out[i] = v
		}
		m.perWorker.Observe(float64(n))
		return out, nil
	}

	// Each worker runs under its own context derived from the caller's.
	// Claims and cancellations share mu, so a worker either claims its
	// item before a failure (and is cancelled by it if the item lies
	// above) or sees the failure when it claims (and stops). Every slot
	// is filled before the first worker starts: fail reads them all.
	var (
		mu      sync.Mutex
		next    int // next index to claim
		errIdx  = n // lowest index that failed so far
		first   error
		held    = make([]int, w) // item each worker holds (-1: none yet)
		wctxs   = make([]context.Context, w)
		cancels = make([]context.CancelFunc, w)
	)
	for g := range held {
		held[g] = -1
		wctxs[g], cancels[g] = context.WithCancel(ctx)
	}
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if i >= errIdx {
			return
		}
		errIdx, first = i, err
		for g, h := range held {
			if h > i {
				cancels[g]()
			}
		}
	}
	claim := func(worker int) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		// Items past the failing index are moot: a serial loop never
		// reaches them.
		if next >= n || next > errIdx {
			return 0, false
		}
		i := next
		next++
		held[worker] = i
		return i, true
	}

	var wg sync.WaitGroup
	wg.Add(w)
	for g, wctx := range wctxs {
		go func(worker int, wctx context.Context) {
			defer wg.Done()
			ran := 0
			defer func() { m.perWorker.Observe(float64(ran)) }()
			for {
				i, ok := claim(worker)
				if !ok {
					return
				}
				if err := wctx.Err(); err != nil {
					// Cancelled by the caller, or by a failure below i
					// (which fail then ignores): either way i is moot.
					fail(i, err)
					return
				}
				v, err := runItem(m, wctx, worker, i, fn)
				ran++
				if err != nil {
					fail(i, err)
					continue
				}
				out[i] = v
			}
		}(g, wctx)
	}
	wg.Wait()
	if errIdx < n {
		return out, first
	}
	return out, ctx.Err()
}

// MapAll runs fn(ctx, i) for i in [0, n) across a bounded worker pool
// and returns every result alongside a per-index error slice: errs[i] is
// nil where out[i] is valid. Unlike Map, an item error does NOT cancel
// siblings — the sweep runs to completion and the caller decides what to
// do with the failed points. This is the primitive behind the Flow's
// CollectAndReport failure policy. External cancellation is still
// honoured: items not yet started when ctx is cancelled get errs[i] =
// ctx.Err() without running. Panics are contained exactly as in Map. A
// nil ctx means Background.
func MapAll[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return out, errs
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	m := metricsFrom(ctx)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			out[i], errs[i] = runItem(m, ctx, -1, i, fn)
		}
		m.perWorker.Observe(float64(n))
		return out, errs
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			ran := 0
			defer func() { m.perWorker.Observe(float64(ran)) }()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				out[i], errs[i] = runItem(m, ctx, worker, i, fn)
				ran++
			}
		}(g)
	}
	wg.Wait()
	return out, errs
}

// ForEach is Map without results: fn(ctx, i) for i in [0, n) with the
// same pool, ordering and first-error semantics.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	_, err := Map(ctx, workers, n, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}

// Sweep is the unified 1-D sweep helper behind the flow's characterization
// ladders (through-pitch tables, the Figure 1 litho pitch sweep): it
// evaluates fn at every point with bounded parallelism and returns the
// results in point order.
func Sweep[P, R any](ctx context.Context, workers int, points []P, fn func(ctx context.Context, p P) (R, error)) ([]R, error) {
	return Map(ctx, workers, len(points), func(ctx context.Context, i int) (R, error) {
		return fn(ctx, points[i])
	})
}

// Grid is the unified 2-D sweep helper (FEM defocus × dose matrices,
// process-window studies): out[i][j] = fn(rows[i], cols[j]), evaluated
// over one shared worker pool spanning the whole grid rather than one
// pool per row.
func Grid[A, B, R any](ctx context.Context, workers int, rows []A, cols []B, fn func(ctx context.Context, a A, b B) (R, error)) ([][]R, error) {
	nc := len(cols)
	flat, err := Map(ctx, workers, len(rows)*nc, func(ctx context.Context, k int) (R, error) {
		return fn(ctx, rows[k/nc], cols[k%nc])
	})
	if err != nil {
		return nil, err
	}
	out := make([][]R, len(rows))
	for i := range out {
		out[i] = flat[i*nc : (i+1)*nc : (i+1)*nc]
	}
	return out, nil
}
