// Fault-tolerant batch scheduling: SearchBatchCtx threads a context through
// the batch scheduler (cooperative cancellation between tasks, per-batch
// deadlines with typed ErrDeadline), isolates per-task panics into
// (block, query)-attributed TaskPanicErrors so one poisoned query fails
// alone, and returns partial results whose completed queries are
// byte-identical to a full run. The (block, query) task — the paper's unit
// of decoupled work — is the abort and failure granularity throughout.
package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/alphabet"
	"repro/internal/faultinject"
	"repro/internal/neighbor"
	"repro/internal/parallel"
	"repro/internal/search"
)

// Fault sites of the engine's hot path. Disarmed they cost one atomic load
// per task; the chaos harness arms them by name (see internal/faultinject).
var (
	fiSchedTask = faultinject.NewSite("sched.task")
	fiHitDetect = faultinject.NewSite("core.hitdetect")
	fiExtend    = faultinject.NewSite("core.extend")
	fiFinalize  = faultinject.NewSite("core.finalize")
)

// BatchResult is the outcome of a fault-tolerant batch search. Results has
// one entry per query; entry qi is meaningful only when Completed[qi] is
// true, in which case it is byte-identical to the result a fault-free run
// produces for that query. QueryErrs[qi] explains an incomplete query (a
// *search.TaskPanicError for a poisoned query, a *search.QueryCancelledError
// for one cut off by cancellation or deadline); it is nil for completed
// queries. Err is the batch-level error: nil when every task ran,
// search.ErrDeadline (wrapped) when the per-batch deadline expired, or the
// context's cancellation error.
type BatchResult struct {
	Results   []search.QueryResult
	Completed []bool
	QueryErrs []error
	Sched     search.SchedStats
	Err       error
}

// CompletedCount returns how many queries finished.
func (b *BatchResult) CompletedCount() int {
	n := 0
	for _, c := range b.Completed {
		if c {
			n++
		}
	}
	return n
}

// SearchBatchCtx is SearchBatch with cooperative cancellation, deadline
// support, and panic isolation. It is Algorithm 3 without its per-block
// barrier: one dynamic-schedule pass over the flattened (block × query) task
// grid, ordered block-major so consecutive tasks share a hot index block.
// Results land in per-task cells merged at finalize, so the output is
// identical to sequential search. The context is observed between tasks: once
// it is cancelled no new (block, query) task starts, in-flight tasks finish,
// and queries whose tasks all completed are still finalized and returned.
func (e *Engine) SearchBatchCtx(ctx context.Context, queries [][]alphabet.Code, threads int) BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	nq := len(queries)
	nTasks := len(e.Ix.Blocks) * nq
	scratches := make([]*scratch, parallel.NumWorkers(nTasks, threads))
	for i := range scratches {
		scratches[i] = e.getScratch()
	}
	defer func() {
		for _, sc := range scratches {
			e.putScratch(sc)
		}
	}()
	g := &grid{
		cells:  make([][]search.SubjectAlignments, nTasks),
		stats:  make([]search.Stats, nTasks),
		taskOK: make([]bool, nTasks),
		fails:  &batchFailures{failed: make([]bool, nq)},
		plans:  make([]*neighbor.Plan, nq),
		once:   make([]sync.Once, nq),
	}
	defer func() {
		for _, p := range g.plans {
			if p != nil {
				e.plans.Put(p)
			}
		}
	}()
	var zero search.Stats
	ts, ctxErr := parallel.ForTasksOpts(nTasks, threads, func(w, t int) {
		bi, qi := t/nq, t%nq
		q := queries[qi]
		if len(q) < alphabet.W {
			g.taskOK[t] = true
			return
		}
		if g.fails.poisoned(qi) {
			// The query already failed on another block; skip its remaining
			// cells (they could not be reported anyway).
			return
		}
		fiSchedTask.Fire()
		st := &g.stats[t]
		start := time.Now()
		// The query's first task to start plans it for all of them.
		g.once[qi].Do(func() {
			p := e.plans.Get().(*neighbor.Plan)
			e.planQuery(p, q, st)
			g.plans[qi] = p
		})
		sc := scratches[w]
		sc.plan = g.plans[qi]
		g.cells[t] = e.searchBlock(sc, q, bi, st)
		st.SchedTasks = 1
		st.SchedBusyNanos = int64(time.Since(start))
		e.stampTask(&zero, st) // cell stats start zeroed, so post == delta
		g.taskOK[t] = true
	}, parallel.RunOptions{
		Context:  ctx,
		Observer: e.met.TaskNanos,
		OnPanic: func(_, t int, v any, stack []byte) {
			g.fails.record(&search.TaskPanicError{Block: t / nq, Query: t % nq, Value: v, Stack: stack})
			e.met.TasksPanicked.Add(1)
		},
	})
	br := e.finishBatch(ctx, queries, scratches, g, schedStatsFrom(ts), ctxErr)
	e.stampSched(br.Sched)
	e.stampBatchFaults(&br)
	return br
}

// stampBatchFaults folds a batch's failure counters into the metric bundle.
// (Task panics are stamped as they happen; this covers the batch-scoped
// outcomes.)
func (e *Engine) stampBatchFaults(br *BatchResult) {
	if br.Sched.DeadlineExceeded {
		e.met.DeadlineExceeded.Add(1)
	}
	var cancelled int64
	for _, err := range br.QueryErrs {
		var qc *search.QueryCancelledError
		if errors.As(err, &qc) {
			cancelled++
		}
	}
	if cancelled > 0 {
		e.met.QueriesCancelled.Add(cancelled)
	}
}

// batchFailures collects per-query failure state during a batch run. The
// panic path is cold, so a mutex (not atomics) guards it.
type batchFailures struct {
	mu      sync.Mutex
	panics  map[int]*search.TaskPanicError // first panic per query
	failed  []bool                         // failed[qi]: query is poisoned
	nPanics int64                          // total panicked tasks (not unique queries)
}

// record stores the first panic attributed to query qi and poisons it.
func (f *batchFailures) record(perr *search.TaskPanicError) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.panics == nil {
		f.panics = make(map[int]*search.TaskPanicError)
	}
	if _, ok := f.panics[perr.Query]; !ok {
		f.panics[perr.Query] = perr
	}
	f.failed[perr.Query] = true
	f.nPanics++
}

// poisoned reports whether query qi has failed. The read takes the mutex, so
// it is not a data race; a task that asked just before another task's panic
// was recorded still runs, which only means one more cell is computed for a
// doomed query.
func (f *batchFailures) poisoned(qi int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failed[qi]
}

func (f *batchFailures) panicFor(qi int) *search.TaskPanicError {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p, ok := f.panics[qi]; ok {
		return p
	}
	return nil
}

// grid is the state of one batch's (block × query) task grid, block-major:
// task t = block*nq + query. Each slot is written only by the worker that
// ran task t, and read after the run's final wait. plans[qi] is query qi's
// neighbor plan, written once under once[qi] by whichever of its tasks
// starts first and read by all of them.
type grid struct {
	cells  [][]search.SubjectAlignments
	stats  []search.Stats
	taskOK []bool
	fails  *batchFailures
	plans  []*neighbor.Plan
	once   []sync.Once
}

// finishBatch runs the finalize phase (stage four, parallel over queries,
// itself cancellable and panic-isolated) and assembles the BatchResult. A
// query is completed only when all its search tasks ran AND its finalize
// ran; completed queries are byte-identical to a fault-free run because
// their inputs — the per-(block, query) cells — are independent of every
// other task's fate.
func (e *Engine) finishBatch(ctx context.Context, queries [][]alphabet.Code, scratches []*scratch, g *grid, ss search.SchedStats, ctxErr error) BatchResult {
	nq := len(queries)
	fails := g.fails
	results := make([]search.QueryResult, nq)
	finOK := make([]bool, nq) // written only by query qi's finalizer
	_, finErr := parallel.ForTasksOpts(nq, len(scratches), func(w, qi int) {
		if fails.poisoned(qi) {
			return
		}
		total := 0
		for t := qi; t < len(g.cells); t += nq {
			if !g.taskOK[t] {
				return
			}
			total += len(g.cells[t])
		}
		fiFinalize.Fire()
		var subjects []search.SubjectAlignments
		if total > 0 {
			subjects = make([]search.SubjectAlignments, 0, total)
		}
		var pre search.Stats
		for t := qi; t < len(g.cells); t += nq {
			subjects = append(subjects, g.cells[t]...)
			pre.Add(g.stats[t])
		}
		// The worker's scratch last served whichever task it pulled last.
		sc := scratches[w]
		sc.prof.Fill(e.Cfg.Matrix, queries[qi])
		results[qi] = search.Finalize(e.Cfg, sc.aligner, &sc.prof, qi, queries[qi], e.Ix.DB, subjects, pre)
		e.stampQueryDone(&pre, &results[qi].Stats)
		finOK[qi] = true
	}, parallel.RunOptions{
		Context: ctx,
		OnPanic: func(_, qi int, v any, stack []byte) {
			fails.record(&search.TaskPanicError{Block: -1, Query: qi, Value: v, Stack: stack})
			e.met.TasksPanicked.Add(1)
		},
	})
	if ctxErr == nil {
		ctxErr = finErr
	}

	completed := make([]bool, nq)
	qerrs := make([]error, nq)
	for qi := 0; qi < nq; qi++ {
		if finOK[qi] {
			completed[qi] = true
			continue
		}
		results[qi] = search.QueryResult{Query: qi} // zero result, flagged below
		if perr := fails.panicFor(qi); perr != nil {
			qerrs[qi] = perr
			ss.QueriesAborted++
			continue
		}
		cause := ctxErr
		if cause == nil {
			cause = context.Canceled // unreachable today; defensive attribution
		}
		qerrs[qi] = &search.QueryCancelledError{Query: qi, Cause: cause}
		ss.QueriesAborted++
	}
	ss.TasksPanicked = tasksPanickedCount(fails)
	ss.TasksCancelled = int64(len(g.cells)) - ss.Tasks
	ss.DeadlineExceeded = errors.Is(ctxErr, context.DeadlineExceeded)
	return BatchResult{
		Results:   results,
		Completed: completed,
		QueryErrs: qerrs,
		Sched:     ss,
		Err:       search.BatchErr(ctxErr),
	}
}

func tasksPanickedCount(f *batchFailures) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nPanics
}
