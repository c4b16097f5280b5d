// Package parallel provides the dynamic-schedule parallel loop the paper's
// multithreaded implementation relies on (Algorithm 3's
// "omp parallel for schedule(dynamic)"): iterations are handed to workers
// one at a time from a shared atomic counter, so variable per-iteration cost
// (BLAST is input-sensitive, Section IV-D2) does not unbalance the workers.
package parallel

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// NumWorkers returns the number of workers the loop will actually use for
// n iterations and the requested worker count, so callers can pre-allocate
// per-worker scratch state.
func NumWorkers(n, workers int) int {
	if n < 1 {
		// Zero (or negative) iterations still reports one worker, so callers
		// sizing per-worker scratch arrays always get a non-empty slice.
		return 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForWorkers runs fn(worker, i) for i in [0, n) on min(workers, n)
// goroutines with dynamic scheduling. workers <= 0 uses GOMAXPROCS. It
// returns when all iterations are complete; fn must be safe to call
// concurrently. The worker id lets callers keep per-worker scratch state
// (last-hit arrays, aligners, hit buffers) without locking. Worker ids are
// dense in [0, numWorkers).
func ForWorkers(n, workers int, fn func(worker, i int)) {
	ForTasksOpts(n, workers, fn, RunOptions{})
}

// TaskStats reports what each worker did during one ForTasksOpts run. Every pull
// from the shared counter is effectively a steal from one global queue, so
// per-worker task counts show how the load actually distributed; busy time
// vs run wall-clock shows how much of the run each worker spent stalled
// (waiting behind the final barrier after the queue drained, or descheduled).
type TaskStats struct {
	Workers int // workers actually used
	Tasks   int // tasks executed (== max(n, 0))
	// WorkerTasks[w] counts the tasks worker w pulled from the shared queue.
	WorkerTasks []int64
	// WorkerBusy[w] is the wall-clock nanoseconds worker w spent inside fn.
	WorkerBusy []int64
	// ElapsedNanos is the wall-clock duration of the whole run.
	ElapsedNanos int64
}

// TotalBusyNanos sums the workers' in-task time.
func (ts *TaskStats) TotalBusyNanos() int64 {
	var sum int64
	for _, b := range ts.WorkerBusy {
		sum += b
	}
	return sum
}

// StallNanos is the total worker-time spent outside tasks:
// Workers * ElapsedNanos - TotalBusyNanos, clamped at zero.
func (ts *TaskStats) StallNanos() int64 {
	s := int64(ts.Workers)*ts.ElapsedNanos - ts.TotalBusyNanos()
	if s < 0 {
		s = 0
	}
	return s
}

// MinWorkerTasks returns the smallest per-worker task count.
func (ts *TaskStats) MinWorkerTasks() int64 {
	if len(ts.WorkerTasks) == 0 {
		return 0
	}
	min := ts.WorkerTasks[0]
	for _, c := range ts.WorkerTasks[1:] {
		if c < min {
			min = c
		}
	}
	return min
}

// MaxWorkerTasks returns the largest per-worker task count.
func (ts *TaskStats) MaxWorkerTasks() int64 {
	var max int64
	for _, c := range ts.WorkerTasks {
		if c > max {
			max = c
		}
	}
	return max
}

// TaskObserver receives the wall-clock duration of each completed task.
// Implementations must be safe for concurrent use from every worker and
// should be wait-free (e.g. an atomic histogram) — the scheduler calls it
// inline between tasks.
type TaskObserver interface {
	Observe(nanos int64)
}

// RunOptions are the robustness and instrumentation hooks of ForTasksOpts for
// the fault-tolerant batch pipeline. The zero value is a plain parallel loop.
type RunOptions struct {
	// Context, when non-nil, is checked before every task pull: once it is
	// cancelled no new task starts (in-flight tasks run to completion — the
	// task is the abort granularity), and the run returns ctx.Err(). The
	// per-task cost is one non-blocking channel poll.
	Context context.Context
	// Observer receives each completed task's duration (see TaskObserver).
	Observer TaskObserver
	// OnPanic, when non-nil, isolates task panics: a panicking task is
	// recovered, reported as (worker, task, recovered value, stack), counted
	// as executed, and the scheduler moves on to the next task. When nil,
	// panics propagate and tear down the run (pre-robustness behaviour).
	// Must be safe for concurrent calls from every worker.
	OnPanic func(worker, task int, recovered any, stack []byte)
}

// ForTasksOpts is the one loop of this package; For and ForWorkers are it
// with the zero RunOptions. It runs fn(worker, task) for task in [0, n) with
// dynamic scheduling from a single atomic counter, and there is exactly one
// synchronization point — the final wait after the counter passes n — so a
// flattened task grid (e.g. block-major (block, query) cells) runs with no
// intermediate barriers. It returns the utilization counters for the tasks
// that actually ran (Tasks reflects executed tasks, not n, when the run is cut
// short) and the context error if cancellation stopped the run before all n
// tasks executed. The timing overhead is two clock reads per task, so tasks
// should be microseconds or longer; every caller's are (an index block, a
// query, a (block, query) cell).
func ForTasksOpts(n, workers int, fn func(worker, task int), opt RunOptions) (TaskStats, error) {
	if n <= 0 {
		return TaskStats{}, nil
	}
	workers = NumWorkers(n, workers)
	ts := TaskStats{
		Workers:     workers,
		WorkerTasks: make([]int64, workers),
		WorkerBusy:  make([]int64, workers),
	}
	var done <-chan struct{}
	if opt.Context != nil {
		done = opt.Context.Done()
	}
	var next atomic.Int64
	pull := func(worker int) {
		for !cancelled(done) {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			runTask(worker, i, fn, &opt, &ts)
		}
	}
	runStart := time.Now()
	if workers == 1 {
		// On the caller's goroutine: tasks run in index order, and a panic
		// without an OnPanic hook reaches the caller.
		pull(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(worker int) {
				defer wg.Done()
				pull(worker)
			}(w)
		}
		wg.Wait()
	}
	ts.ElapsedNanos = int64(time.Since(runStart))
	for _, c := range ts.WorkerTasks {
		ts.Tasks += int(c)
	}
	if ts.Tasks < n && opt.Context != nil {
		return ts, opt.Context.Err()
	}
	return ts, nil
}

// cancelled is the per-task cancellation poll: nil channel (no context)
// costs one comparison; otherwise one non-blocking select.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// runTask executes one task with timing and, when requested, panic
// isolation. A panicked task still counts toward the worker's task and busy
// counters — it consumed a scheduling slot and wall-clock time.
func runTask(worker, i int, fn func(worker, task int), opt *RunOptions, ts *TaskStats) {
	taskStart := time.Now()
	defer func() {
		nanos := int64(time.Since(taskStart))
		ts.WorkerBusy[worker] += nanos
		ts.WorkerTasks[worker]++
		if opt.Observer != nil {
			opt.Observer.Observe(nanos)
		}
		if r := recover(); r != nil {
			if opt.OnPanic == nil {
				panic(r)
			}
			opt.OnPanic(worker, i, r, debug.Stack())
		}
	}()
	fn(worker, i)
}
