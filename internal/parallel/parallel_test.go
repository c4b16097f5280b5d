package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// countingObserver is a TaskObserver accumulating count and sum atomically.
type countingObserver struct {
	count atomic.Int64
	sum   atomic.Int64
}

func (o *countingObserver) Observe(nanos int64) {
	o.count.Add(1)
	o.sum.Add(nanos)
}

// TestLoop drives the package's one loop over the cross product of its
// inputs and checks the invariants every caller relies on: each index runs
// exactly once, or not at all when the run was cut short; the counters
// describe the tasks that ran; the context's error comes back iff tasks were
// skipped; a hooked panic is reported, counted as an executed task and does
// not stop the run; an unhooked one reaches the caller.
func TestLoop(t *testing.T) {
	const (
		noCtx = iota
		cancelledBefore
		cancelledMidRun
	)
	const (
		noPanic = iota
		panicHooked
		panicUnhooked
	)
	const cancelAfter = 3 // mid-run: the task that cancels
	panics := func(i int) bool { return i%3 == 1 }
	for _, n := range []int{0, 1, 200} {
		for _, workers := range []int{1, 4, n + 5} {
			for ctxMode := noCtx; ctxMode <= cancelledMidRun; ctxMode++ {
				for panicMode := noPanic; panicMode <= panicUnhooked; panicMode++ {
					if panicMode == panicUnhooked && workers != 1 {
						continue // would take the test process down with it
					}
					name := fmt.Sprintf("n=%d/workers=%d/ctx=%d/panic=%d", n, workers, ctxMode, panicMode)
					t.Run(name, func(t *testing.T) {
						var opt RunOptions
						cancel := func() {}
						if ctxMode != noCtx {
							opt.Context, cancel = context.WithCancel(context.Background())
							defer cancel()
						}
						if ctxMode == cancelledBefore {
							cancel()
						}
						var obs countingObserver
						opt.Observer = &obs
						var hooked atomic.Int64
						if panicMode == panicHooked {
							opt.OnPanic = func(w, i int, v any, stack []byte) {
								hooked.Add(1)
								if v != "poisoned" || len(stack) == 0 || !panics(i) {
									t.Errorf("OnPanic(%d, %d, %v, %d stack bytes)", w, i, v, len(stack))
								}
							}
						}
						seen := make([]atomic.Int32, n)
						var started atomic.Int64
						var order []int // appended to only when there is one worker
						usedWorkers := NumWorkers(n, workers)
						fn := func(w, i int) {
							if w < 0 || w >= usedWorkers {
								t.Errorf("worker id %d outside [0, %d)", w, usedWorkers)
							}
							seen[i].Add(1)
							if usedWorkers == 1 {
								order = append(order, i)
							}
							if started.Add(1) == cancelAfter && ctxMode == cancelledMidRun {
								cancel()
							}
							if panicMode != noPanic && panics(i) {
								panic("poisoned")
							}
						}

						var ts TaskStats
						var err error
						var propagated any
						func() {
							defer func() { propagated = recover() }()
							ts, err = ForTasksOpts(n, workers, fn, opt)
						}()

						executed, wantHooked := 0, int64(0)
						for i := range seen {
							c := int(seen[i].Load())
							if c > 1 {
								t.Fatalf("index %d ran %d times", i, c)
							}
							executed += c
							if c == 1 && panics(i) {
								wantHooked++
							}
						}
						for k, i := range order {
							if i != k {
								t.Fatalf("one worker ran out of index order: %v", order)
							}
						}
						if panicMode == panicUnhooked && executed > 1 {
							// Index 1 is the first to panic; nothing runs after it.
							if propagated != "poisoned" || executed != 2 {
								t.Errorf("unhooked panic: recovered %v after %d tasks", propagated, executed)
							}
							return
						}
						if propagated != nil {
							t.Fatalf("unexpected panic %v", propagated)
						}
						switch {
						case ctxMode == noCtx, n == 0:
							if executed != n {
								t.Errorf("ran %d of %d tasks with nothing to stop the run", executed, n)
							}
						case ctxMode == cancelledBefore:
							if executed != 0 {
								t.Errorf("ran %d tasks under a context cancelled before the start", executed)
							}
						default:
							// The task is the abort granularity: every worker may
							// finish the one it holds, none starts another.
							if executed > cancelAfter+usedWorkers {
								t.Errorf("%d tasks ran after cancellation in task %d with %d workers", executed, cancelAfter, usedWorkers)
							}
						}
						if ts.Tasks != executed {
							t.Errorf("Tasks = %d, executed %d", ts.Tasks, executed)
						}
						if executed < n {
							if !errors.Is(err, context.Canceled) {
								t.Errorf("err = %v with %d of %d tasks run, want context.Canceled", err, executed, n)
							}
						} else if err != nil {
							t.Errorf("err = %v although every task ran", err)
						}
						if panicMode == panicHooked && hooked.Load() != wantHooked {
							t.Errorf("%d panics reported, want %d", hooked.Load(), wantHooked)
						}
						if n == 0 {
							if ts.Workers != 0 {
								t.Errorf("empty run reports %d workers", ts.Workers)
							}
							return
						}
						if ts.Workers != usedWorkers || len(ts.WorkerTasks) != usedWorkers || len(ts.WorkerBusy) != usedWorkers {
							t.Errorf("stats sized for %d/%d/%d workers, want %d", ts.Workers, len(ts.WorkerTasks), len(ts.WorkerBusy), usedWorkers)
						}
						var sum int64
						for _, c := range ts.WorkerTasks {
							sum += c
						}
						if sum != int64(executed) {
							t.Errorf("per-worker counts sum to %d, executed %d", sum, executed)
						}
						if ts.MinWorkerTasks() > ts.MaxWorkerTasks() || ts.MaxWorkerTasks() > int64(executed) {
							t.Errorf("task spread [%d, %d] of %d", ts.MinWorkerTasks(), ts.MaxWorkerTasks(), executed)
						}
						// The observer receives the exact durations the busy
						// counters use, once per executed task, panicked or not.
						if obs.count.Load() != int64(executed) || obs.sum.Load() != ts.TotalBusyNanos() {
							t.Errorf("observer saw %d tasks / %d ns, stats have %d / %d",
								obs.count.Load(), obs.sum.Load(), executed, ts.TotalBusyNanos())
						}
						if ts.ElapsedNanos <= 0 || ts.StallNanos() < 0 {
							t.Errorf("elapsed %d ns, stall %d ns", ts.ElapsedNanos, ts.StallNanos())
						}
					})
				}
			}
		}
	}
}

// The wrappers are the loop with the zero RunOptions: one identity check each.
func TestForWorkersIsTheLoop(t *testing.T) {
	const n, workers = 100, 3
	seen := make([]atomic.Int32, n)
	ForWorkers(n, workers, func(w, i int) {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of range", w)
		}
		seen[i].Add(1)
	})
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("iteration %d ran %d times", i, got)
		}
	}
	for _, empty := range []int{0, -1} {
		ForWorkers(empty, workers, func(_, _ int) { t.Errorf("fn called for the empty range %d", empty) })
	}
}

func TestDeadlineIsReported(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := ForTasksOpts(1000, 2, func(_, _ int) {
		time.Sleep(time.Millisecond)
	}, RunOptions{Context: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	const n, workers = 64, 4
	ts, _ := ForTasksOpts(n, workers, func(_, i int) { time.Sleep(time.Millisecond) }, RunOptions{})
	// Sleeping tasks yield the processor, so even on one CPU every worker
	// pulls from the queue while it is non-empty.
	if ts.MinWorkerTasks() < 1 {
		t.Errorf("a worker pulled %d tasks", ts.MinWorkerTasks())
	}
	if ts.TotalBusyNanos() < int64(n)*int64(time.Millisecond)/2 {
		t.Errorf("busy time %d ns implausibly small", ts.TotalBusyNanos())
	}
	if u := utilization(ts); u <= 0 || u > 1.05 {
		t.Errorf("utilization %.3f outside (0, 1]", u)
	}
}

func utilization(ts TaskStats) float64 {
	return float64(ts.TotalBusyNanos()) / (float64(ts.Workers) * float64(ts.ElapsedNanos))
}

func TestStragglerNoIdling(t *testing.T) {
	// One 40ms straggler plus 63 cheap tasks on 4 workers: with a single
	// task queue and no intermediate barriers, the cheap tasks drain on the
	// other workers while the straggler runs — elapsed stays near the
	// straggler's own time, far below the 103ms serial sum, and utilization
	// stays high (sleeps yield, so this holds even on one CPU).
	const n = 64
	ts, _ := ForTasksOpts(n, 4, func(_, i int) {
		if i == 0 {
			time.Sleep(40 * time.Millisecond)
		} else {
			time.Sleep(time.Millisecond)
		}
	}, RunOptions{})
	if ts.ElapsedNanos > int64(90*time.Millisecond) {
		t.Errorf("elapsed %v suggests workers idled behind the straggler", time.Duration(ts.ElapsedNanos))
	}
	if u := utilization(ts); u < 0.3 {
		t.Errorf("utilization %.3f; workers idled", u)
	}
}

func TestNumWorkersClamping(t *testing.T) {
	cases := []struct{ n, workers, want int }{
		{0, 0, 1},
		{0, 8, 1},
		{-3, 8, 1},
		{1, 8, 1},
		{5, 8, 5},
		{8, 5, 5},
		{100, 0, runtime.GOMAXPROCS(0)},
	}
	for _, c := range cases {
		if got := NumWorkers(c.n, c.workers); got != c.want {
			t.Errorf("NumWorkers(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// TestCancelledBatchLeavesNoGoroutines is the scheduler-level goroutine
// hygiene check: a cancelled run must join every worker before returning.
func TestCancelledBatchLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ForTasksOpts(1000, 8, func(_, _ int) {}, RunOptions{Context: ctx})
	}
	waitForGoroutines(t, base)
}

// waitForGoroutines waits (up to ~2s) for the goroutine count to drop back
// to the baseline, then fails the test if it has not.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
