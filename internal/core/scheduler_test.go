package core

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/dbase"
	"repro/internal/dbindex"
	"repro/internal/search"
	"repro/internal/seqgen"
)

// TestBatchIdentityAllOptions is the scheduler's Section V-E obligation: for
// several thread counts, SearchBatch must reproduce the sequential
// (one-thread) search exactly. (The engine has one configuration; the options
// this test once looped over are deleted.)
func TestBatchIdentityAllOptions(t *testing.T) {
	cfg, ix, queries := world(t, 61, 110, 6, 0, 8192)
	e := New(cfg, ix)
	seq := e.SearchBatch(queries, 1)
	for _, threads := range []int{1, 3, 8} {
		batch := e.SearchBatch(queries, threads)
		requireIdentical(t, "block-major", seq, batch)
	}
}

// TestGridSchedulerStats checks the deterministic scheduler counters: the
// grid executes exactly blocks × queries tasks, every query's stats record
// one task per block, and the worker accounting is self-consistent.
func TestGridSchedulerStats(t *testing.T) {
	cfg, ix, queries := world(t, 67, 120, 8, 128, 8192)
	nb := len(ix.Blocks)
	if nb < 2 {
		t.Fatalf("world has %d blocks; need >= 2 for a meaningful grid", nb)
	}
	e := New(cfg, ix)
	br := e.SearchBatchCtx(context.Background(), queries, 4)
	results, sched := br.Results, br.Sched
	wantTasks := int64(nb * len(queries))
	if sched.Tasks != wantTasks {
		t.Errorf("scheduler ran %d tasks, want %d", sched.Tasks, wantTasks)
	}
	if sched.Workers < 1 || sched.Workers > 4 {
		t.Errorf("scheduler used %d workers, want 1..4", sched.Workers)
	}
	if sched.MinWorkerTasks+sched.MaxWorkerTasks > 0 && sched.MaxWorkerTasks < sched.MinWorkerTasks {
		t.Errorf("worker task spread inverted: min %d > max %d", sched.MinWorkerTasks, sched.MaxWorkerTasks)
	}
	if sched.BusyNanos <= 0 || sched.ElapsedNanos <= 0 {
		t.Errorf("no time accounted: busy %d elapsed %d", sched.BusyNanos, sched.ElapsedNanos)
	}
	if u := sched.Utilization(); u <= 0 || u > 1.05 {
		t.Errorf("utilization %.3f outside (0, 1]", u)
	}
	for qi, r := range results {
		if r.Stats.SchedTasks != int64(nb) {
			t.Errorf("query %d ran as %d tasks, want %d", qi, r.Stats.SchedTasks, nb)
		}
		if r.Stats.SchedBusyNanos <= 0 {
			t.Errorf("query %d has no busy time", qi)
		}
	}
}

// TestSkewedStragglerKeepsWorkersBusy reproduces the failure mode the
// barrier-free scheduler removes: a batch of short queries plus one much
// longer straggler. Under the grid scheduler no worker waits at block
// boundaries, so every worker keeps pulling tasks and the utilization
// counters show all of them participating.
func TestSkewedStragglerKeepsWorkersBusy(t *testing.T) {
	cfg := cfgShared(t)
	g := seqgen.New(seqgen.UniprotProfile(), 71)
	// The database is sized so that the batch outlasts several of the Go
	// scheduler's 10 ms time slices: with more workers than CPUs a worker
	// first runs when another is preempted, and a batch that is over within
	// one slice never gets that far.
	db := dbase.New(g.Database(2400))
	ix, err := dbindex.Build(db, cfg.Neighbors, 8192)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]alphabet.Code, db.NumSeqs())
	for i := range db.Seqs {
		seqs[i] = db.Seqs[i].Data
	}
	// Eleven short queries and one straggler an order of magnitude longer.
	queries := g.Queries(seqs, 11, 96)
	queries = append(queries, g.Queries(seqs, 1, 1536)...)

	e := New(cfg, ix)
	want := e.SearchBatch(queries, 1)
	// On a loaded machine a late-starting worker can in principle find the
	// queue already drained; the grid is large enough that this is rare,
	// and a retry makes it vanishingly so.
	var results []search.QueryResult
	var sched search.SchedStats
	for trial := 0; trial < 3; trial++ {
		br := e.SearchBatchCtx(context.Background(), queries, 4)
		results, sched = br.Results, br.Sched
		requireIdentical(t, "skewed", want, results)
		if sched.MinWorkerTasks >= 1 {
			break
		}
	}
	if sched.Workers != 4 {
		t.Fatalf("used %d workers, want 4", sched.Workers)
	}
	if runtime.NumCPU() >= 2 {
		// All workers keep pulling tasks; none idles behind the straggler.
		if sched.MinWorkerTasks < 1 {
			t.Errorf("a worker pulled %d tasks; all workers should stay busy", sched.MinWorkerTasks)
		}
	} else if sched.MaxWorkerTasks >= sched.Tasks {
		// One CPU serializes the workers, so a late goroutine may legally
		// never run; the dynamic queue must still spread the load across
		// more than one worker (TestForTasksStragglerNoIdling asserts the
		// all-workers-busy property deterministically with yielding tasks).
		t.Errorf("one worker pulled all %d tasks; load did not spread", sched.Tasks)
	}
	if u := sched.Utilization(); u <= 0 || u > 1.05 {
		t.Errorf("utilization %.3f outside (0, 1]", u)
	}
	// The straggler query's tasks dominate per-query busy time.
	straggler := results[len(results)-1].Stats
	if straggler.SchedBusyNanos <= 0 || straggler.SchedTasks != int64(len(ix.Blocks)) {
		t.Errorf("straggler stats not folded: %+v", straggler)
	}
}

// TestConcurrentTasksSameQueryRow drives many workers through the same
// query's row of the task grid at once (threads >> queries), which is the
// configuration where per-task result cells — not per-query appends — keep
// the scheduler race-free. Run under -race via the Makefile race target.
func TestConcurrentTasksSameQueryRow(t *testing.T) {
	cfg, ix, queries := world(t, 73, 150, 2, 160, 2048)
	if len(ix.Blocks) < 4 {
		t.Fatalf("world has %d blocks; need >= 4", len(ix.Blocks))
	}
	e := New(cfg, ix)
	seq := e.SearchBatch(queries, 1)
	for trial := 0; trial < 3; trial++ {
		batch := e.SearchBatch(queries, 8)
		requireIdentical(t, "same-row", seq, batch)
	}
}

// TestConcurrentSearchesSharePool exercises the engine's scratch pool from
// concurrent one-query searches (also a -race target).
func TestConcurrentSearchesSharePool(t *testing.T) {
	cfg, ix, queries := world(t, 79, 100, 4, 128, 8192)
	e := New(cfg, ix)
	want := e.SearchBatch(queries, 1)
	var wg sync.WaitGroup
	got := make([]search.QueryResult, len(queries))
	for qi := range queries {
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			got[qi] = searchOne(e, queries[qi])
		}(qi)
	}
	wg.Wait()
	requireIdentical(t, "concurrent-search", want, got)
}
