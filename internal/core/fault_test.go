package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/search"
)

// renderResult flattens a QueryResult's HSPs to a byte string, so identity
// assertions are literal byte comparisons (floats included: the same
// computation must reproduce the same bits).
func renderResult(r *search.QueryResult) string {
	out := fmt.Sprintf("query %d: %d hsps\n", r.Query, len(r.HSPs))
	for _, h := range r.HSPs {
		out += fmt.Sprintf("%s score=%d bits=%v e=%v q=%d-%d s=%d-%d ops=%s\n",
			h.SubjectName, h.Aln.Score, h.BitScore, h.EValue,
			h.Aln.QStart, h.Aln.QEnd, h.Aln.SStart, h.Aln.SEnd, h.Aln.Ops)
	}
	return out
}

// requireCompletedIdentical asserts every completed query in br matches the
// fault-free baseline byte for byte.
func requireCompletedIdentical(t *testing.T, label string, br *BatchResult, baseline []search.QueryResult) {
	t.Helper()
	for qi := range br.Results {
		if !br.Completed[qi] {
			continue
		}
		got, want := renderResult(&br.Results[qi]), renderResult(&baseline[qi])
		if got != want {
			t.Errorf("%s: completed query %d differs from fault-free run:\ngot:\n%swant:\n%s", label, qi, got, want)
		}
	}
}

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

func TestBatchCtxCompleteRunMatchesLegacy(t *testing.T) {
	cfg, ix, queries := world(t, 101, 150, 4, 200, 8192)
	e := NewWithOptions(cfg, ix, Options{Metrics: obs.Discard})
	base := e.SearchBatch(queries, 3)
	br := e.SearchBatchCtx(context.Background(), queries, 3)
	if br.Err != nil {
		t.Fatalf("clean run returned batch error %v", br.Err)
	}
	if n := br.CompletedCount(); n != len(queries) {
		t.Fatalf("clean run completed %d of %d queries", n, len(queries))
	}
	for qi := range queries {
		if br.QueryErrs[qi] != nil {
			t.Errorf("query %d error on clean run: %v", qi, br.QueryErrs[qi])
		}
	}
	requireIdentical(t, "ctx-vs-legacy", br.Results, base)
}

func TestBatchCancellationAbortsPromptly(t *testing.T) {
	cfg, ix, queries := world(t, 103, 200, 8, 200, 4096)
	goroutines := runtime.NumGoroutine()
	e := NewWithOptions(cfg, ix, Options{Metrics: obs.Discard})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: no task may start
	br := e.SearchBatchCtx(ctx, queries, 4)
	if !errors.Is(br.Err, context.Canceled) {
		t.Fatalf("batch error %v, want context.Canceled", br.Err)
	}
	if n := br.CompletedCount(); n != 0 {
		t.Errorf("pre-cancelled batch completed %d queries", n)
	}
	if br.Sched.TasksCancelled == 0 {
		t.Error("no tasks recorded as cancelled")
	}
	for qi := range queries {
		var qc *search.QueryCancelledError
		if !errors.As(br.QueryErrs[qi], &qc) {
			t.Fatalf("query %d error %v, want QueryCancelledError", qi, br.QueryErrs[qi])
		}
		if qc.Query != qi || !errors.Is(qc, context.Canceled) {
			t.Errorf("query %d error misattributed: %+v", qi, qc)
		}
	}
	waitForGoroutines(t, goroutines)
}

func TestBatchDeadlinePartialResults(t *testing.T) {
	cfg, ix, queries := world(t, 107, 200, 8, 200, 4096)
	e := NewWithOptions(cfg, ix, Options{Metrics: obs.Discard})
	baseline := e.SearchBatch(queries, 2)

	// A delay fault in hit detection stretches every task, so a short
	// deadline reliably lands mid-batch — the deadline-mid-pipeline case.
	if err := faultinject.Enable("core.hitdetect=delay:10ms", 1); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	br := e.SearchBatchCtx(ctx, queries, 2)
	if !errors.Is(br.Err, search.ErrDeadline) {
		t.Fatalf("batch error %v, want ErrDeadline", br.Err)
	}
	if !errors.Is(br.Err, context.DeadlineExceeded) {
		t.Errorf("ErrDeadline does not unwrap to context.DeadlineExceeded: %v", br.Err)
	}
	if !br.Sched.DeadlineExceeded {
		t.Error("SchedStats.DeadlineExceeded not set")
	}
	if n := br.CompletedCount(); n == len(queries) {
		t.Fatal("deadline run completed every query; fault schedule too weak to test partial results")
	}
	faultinject.Disable() // render/compare without the delay in play
	requireCompletedIdentical(t, "deadline-partial", &br, baseline)
}

// TestDeadlineMidSortAndMidGapped pins the deadline behaviour when the clock
// expires inside a specific pipeline stage: the in-flight task finishes (the
// task is the abort granularity), no further task starts, and the completed
// subset stays byte-identical.
func TestDeadlineMidSortAndMidGapped(t *testing.T) {
	cfg, ix, queries := world(t, 109, 200, 6, 200, 4096)
	for _, site := range []string{"core.hitdetect", "core.extend"} {
		// core.hitdetect delays fire before the sort of the same task: the
		// deadline expires while reordering is still ahead of the scheduler
		// (deadline-mid-sort). core.extend delays fire after the sort, with
		// the gapped stage still ahead (deadline-mid-gapped).
		t.Run(site, func(t *testing.T) {
			e := NewWithOptions(cfg, ix, Options{Metrics: obs.Discard})
			baseline := e.SearchBatch(queries, 2)
			if err := faultinject.Enable(site+"=delay:15ms", 1); err != nil {
				t.Fatal(err)
			}
			defer faultinject.Disable()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			br := e.SearchBatchCtx(ctx, queries, 2)
			if !errors.Is(br.Err, search.ErrDeadline) {
				t.Fatalf("batch error %v, want ErrDeadline", br.Err)
			}
			faultinject.Disable()
			requireCompletedIdentical(t, site, &br, baseline)
			for qi, done := range br.Completed {
				if !done && br.QueryErrs[qi] == nil {
					t.Errorf("incomplete query %d has no error", qi)
				}
			}
		})
	}
}

func TestPanicIsolationPoisonsOneQuery(t *testing.T) {
	cfg, ix, queries := world(t, 113, 150, 6, 200, 8192)
	e := NewWithOptions(cfg, ix, Options{Metrics: obs.Discard})
	baseline := e.SearchBatch(queries, 3)

	// Fire exactly one injected panic: the third sched.task hit.
	if err := faultinject.Enable("sched.task=panic#3", 1); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	br := e.SearchBatchCtx(context.Background(), queries, 3)
	faultinject.Disable()
	if br.Err != nil {
		t.Fatalf("batch error %v; an isolated panic must not fail the batch", br.Err)
	}
	if br.Sched.TasksPanicked != 1 {
		t.Fatalf("TasksPanicked = %d, want 1", br.Sched.TasksPanicked)
	}
	poisoned := -1
	for qi := range queries {
		if br.Completed[qi] {
			if br.QueryErrs[qi] != nil {
				t.Errorf("completed query %d carries error %v", qi, br.QueryErrs[qi])
			}
			continue
		}
		if poisoned >= 0 {
			t.Fatalf("queries %d and %d both poisoned by one panic", poisoned, qi)
		}
		poisoned = qi
		var perr *search.TaskPanicError
		if !errors.As(br.QueryErrs[qi], &perr) {
			t.Fatalf("query %d error %v, want TaskPanicError", qi, br.QueryErrs[qi])
		}
		if perr.Query != qi {
			t.Errorf("panic attributed to query %d, flagged on %d", perr.Query, qi)
		}
		if perr.Block < 0 || perr.Block >= len(ix.Blocks) {
			t.Errorf("panic block %d out of range", perr.Block)
		}
		if pv, ok := perr.Value.(faultinject.PanicValue); !ok || pv.Site != "sched.task" {
			t.Errorf("panic value %v, want injected PanicValue", perr.Value)
		}
		if len(perr.Stack) == 0 {
			t.Error("panic stack not captured")
		}
	}
	if poisoned < 0 {
		t.Fatal("no query poisoned; fault did not fire")
	}
	requireCompletedIdentical(t, "panic-isolation", &br, baseline)
}

func TestPanicCountersStamped(t *testing.T) {
	cfg, ix, queries := world(t, 127, 100, 4, 200, 8192)
	reg := obs.NewRegistry()
	met := obs.NewPipelineMetrics(reg)
	e := NewWithOptions(cfg, ix, Options{Metrics: met})
	if err := faultinject.Enable("sched.task=panic#2", 1); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	br := e.SearchBatchCtx(context.Background(), queries, 2)
	faultinject.Disable()
	if got := met.TasksPanicked.Value(); got != 1 {
		t.Errorf("tasks_panicked = %d, want 1", got)
	}
	if br.CompletedCount() != len(queries)-1 {
		t.Errorf("completed %d of %d", br.CompletedCount(), len(queries))
	}

	// Deadline + cancellation counters.
	if err := faultinject.Enable("core.hitdetect=delay:10ms", 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	br = e.SearchBatchCtx(ctx, queries, 2)
	faultinject.Disable()
	if !errors.Is(br.Err, search.ErrDeadline) {
		t.Fatalf("batch err %v", br.Err)
	}
	if met.DeadlineExceeded.Value() == 0 {
		t.Error("deadline_exceeded counter did not move")
	}
	if met.QueriesCancelled.Value() == 0 {
		t.Error("queries_cancelled counter did not move")
	}
	if met.QueriesCancelled.Value() != int64(len(queries))-int64(br.CompletedCount()) {
		t.Errorf("queries_cancelled = %d, incomplete = %d",
			met.QueriesCancelled.Value(), len(queries)-br.CompletedCount())
	}
}
