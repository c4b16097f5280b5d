package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/alphabet"
	"repro/internal/hit"
	"repro/internal/obs"
	"repro/internal/search"
)

// renderResults serializes everything a user-visible report is built from:
// HSP identity, coordinates, scores, E-values and traceback ops. Timing
// fields are deliberately excluded — they are the one thing observability
// is allowed to (and does) populate.
func renderResults(results []search.QueryResult) []byte {
	var b bytes.Buffer
	for qi, r := range results {
		fmt.Fprintf(&b, "query %d: %d hsps\n", qi, len(r.HSPs))
		for _, h := range r.HSPs {
			fmt.Fprintf(&b, "%d %d %d-%d %d-%d %.17g %s\n",
				h.Subject, h.Aln.Score, h.Aln.QStart, h.Aln.QEnd,
				h.Aln.SStart, h.Aln.SEnd, h.EValue, string(h.Aln.Ops))
		}
	}
	return b.Bytes()
}

// TestObservabilityOnOffByteIdentical pins the contract that instrumentation
// never changes answers: the same batch searched with the default (live)
// metric bundle and with obs.Discard must render byte-identically, on a
// three-thread batch and on a one-query, one-thread one.
func TestObservabilityOnOffByteIdentical(t *testing.T) {
	cfg, ix, queries := world(t, 91, 120, 6, 256, 8192)
	on := Options{} // Metrics nil -> obs.Pipe, observability on
	off := Options{Metrics: obs.Discard}

	resOn := NewWithOptions(cfg, ix, on).SearchBatch(queries, 3)
	resOff := NewWithOptions(cfg, ix, off).SearchBatch(queries, 3)
	label := "batch obs on vs off"
	requireIdentical(t, label, resOn, resOff)
	if !bytes.Equal(renderResults(resOn), renderResults(resOff)) {
		t.Errorf("%s: rendered output differs", label)
	}

	onRes := searchOne(NewWithOptions(cfg, ix, on), queries[0])
	offRes := searchOne(NewWithOptions(cfg, ix, off), queries[0])
	requireIdentical(t, "single-query obs on vs off",
		[]search.QueryResult{onRes}, []search.QueryResult{offRes})
	if !bytes.Equal(renderResults([]search.QueryResult{onRes}), renderResults([]search.QueryResult{offRes})) {
		t.Error("single-query rendered output differs")
	}
}

// TestStampedTaskZeroAllocs proves the instrumentation adds zero allocations
// per scheduler task when no trace sink is attached: the warmed per-task hot
// path plus the full metric stamp (counter deltas, stage nanos, task
// histogram) allocates nothing.
func TestStampedTaskZeroAllocs(t *testing.T) {
	cfg, ix, queries := world(t, 83, 100, 1, 256, 8192)
	q := queries[0]
	b := ix.Blocks[0]
	maxDiags := len(q) + b.Block.MaxLen - 2*alphabet.W + 1
	coder, err := hit.NewKeyCoder(b.Block.NumSeqs(), maxDiags)
	if err != nil {
		t.Fatal(err)
	}
	e := New(cfg, ix)
	sc := e.getScratch()
	defer e.putScratch(sc)
	planned(e, sc, q)
	var st search.Stats
	var zero search.Stats
	task := func() {
		e.detectPrefiltered(sc, q, 0, coder, &st)
		e.sortPairs(sc, coder)
		e.stampTask(&zero, &st)
		e.met.TaskNanos.Observe(1)
	}
	for i := 0; i < 2; i++ {
		task() // warm up scratch to steady state
	}
	if allocs := testing.AllocsPerRun(20, task); allocs != 0 {
		t.Errorf("instrumented task allocates %.1f objects per run, want 0", allocs)
	}
}

// TestSearchStampsAllStages checks a real muBLASTP search produces spans
// for all six pipeline stages, in order, with the always-on stages non-zero.
func TestSearchStampsAllStages(t *testing.T) {
	cfg, ix, queries := world(t, 97, 150, 1, 384, 8192)
	res := searchOne(New(cfg, ix), queries[0])
	spans := res.Stats.Spans()
	names := obs.StageNames()
	if len(spans) != int(obs.NumStages) {
		t.Fatalf("got %d spans, want %d", len(spans), obs.NumStages)
	}
	for i, sp := range spans {
		if sp.Stage != names[i] {
			t.Errorf("span %d = %q, want %q", i, sp.Stage, names[i])
		}
		if sp.Nanos < 0 {
			t.Errorf("span %s has negative time %d", sp.Stage, sp.Nanos)
		}
	}
	// Every query scans the index and reorders hits; those stages cannot be
	// free on a non-trivial workload.
	for _, stage := range []obs.Stage{obs.StageHitDetect, obs.StageSort} {
		if spans[stage].Nanos == 0 {
			t.Errorf("stage %s stamped zero time", stage)
		}
	}
	if res.Stats.TotalStageNanos() == 0 {
		t.Error("total stage time is zero")
	}
}

// TestBatchStampsPipelineMetrics runs a batch against an isolated metric
// bundle and checks the registry totals reconcile with the per-query stats.
func TestBatchStampsPipelineMetrics(t *testing.T) {
	cfg, ix, queries := world(t, 101, 120, 4, 256, 8192)
	met := obs.NewPipelineMetrics(obs.NewRegistry())
	e := NewWithOptions(cfg, ix, Options{Metrics: met})
	br := e.SearchBatchCtx(context.Background(), queries, 2)
	results, ss := br.Results, br.Sched

	var want search.Stats
	for i := range results {
		want.Add(results[i].Stats)
	}
	if got := met.Hits.Value(); got != want.Hits {
		t.Errorf("metric hits %d != stats hits %d", got, want.Hits)
	}
	if got := met.Tracebacks.Value(); got != want.Tracebacks {
		t.Errorf("metric tracebacks %d != stats %d", got, want.Tracebacks)
	}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if got := met.StageNanos[s].Value(); got != want.StageNanos[s] {
			t.Errorf("stage %s metric %d != stats %d", s, got, want.StageNanos[s])
		}
	}
	if got := met.Queries.Value(); got != int64(len(queries)) {
		t.Errorf("queries counter %d, want %d", got, len(queries))
	}
	if got := met.Tasks.Value(); got != ss.Tasks {
		t.Errorf("tasks counter %d, want %d", got, ss.Tasks)
	}
	if met.TaskNanos.Count() != ss.Tasks {
		t.Errorf("task histogram count %d, want %d", met.TaskNanos.Count(), ss.Tasks)
	}
	if met.QueryNanos.Count() != int64(len(queries)) {
		t.Errorf("query histogram count %d, want %d", met.QueryNanos.Count(), len(queries))
	}
	if met.Batches.Value() != 1 {
		t.Errorf("batches counter %d, want 1", met.Batches.Value())
	}
	if u := met.SchedUtilizationPermille.Value(); u <= 0 || u > 1050 {
		t.Errorf("utilization gauge %v outside (0, 1050]", u)
	}
}

// TestDebugEndpointDuringBatchSearch serves the debug handler over a live
// registry while batch searches run against it, and asserts /metrics,
// /debug/vars and /debug/pprof/ respond mid-flight with non-zero pipeline
// stage counters.
func TestDebugEndpointDuringBatchSearch(t *testing.T) {
	cfg, ix, queries := world(t, 103, 150, 4, 256, 8192)
	reg := obs.NewRegistry()
	met := obs.NewPipelineMetrics(reg)
	e := NewWithOptions(cfg, ix, Options{Metrics: met})

	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			e.SearchBatch(queries, 2)
		}
	}()

	metricValue := func(body, name string) int64 {
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseInt(rest, 10, 64)
				if err != nil {
					t.Fatalf("metric %s has non-integer value %q", name, rest)
				}
				return v
			}
		}
		return -1
	}
	fetch := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	deadline := time.Now().Add(10 * time.Second)
	sawLive := false
	for !sawLive {
		select {
		case <-done:
			t.Fatal("search loop finished before /metrics showed non-zero stage counters")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for non-zero stage counters on /metrics")
		}
		code, body := fetch("/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics status %d", code)
		}
		if metricValue(body, "pipeline_stage_hit_detect_nanos_total") > 0 &&
			metricValue(body, "sched_tasks_total") > 0 &&
			metricValue(body, "pipeline_hits_total") > 0 {
			sawLive = true
		}
	}
	if code, _ := fetch("/debug/vars"); code != http.StatusOK {
		t.Errorf("/debug/vars status %d during search", code)
	}
	if code, _ := fetch("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d during search", code)
	}
	<-done
}
