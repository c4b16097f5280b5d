// The stage-budget experiment (-exp stage). Where the figure tables
// reproduce the paper's evaluation, this one measures its *stage budget*
// claims on the standard workload: hit detection + prefiltering dominate,
// the radix sort stays a small slice of runtime, and only a small minority
// of hits survive the prefilter into the sort (Section IV-B, Fig 6).
package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/neighbor"
	"repro/internal/obs"
)

// StageShare is one pipeline stage's slice of the total pipeline time.
type StageShare struct {
	Stage string
	Nanos int64
	Share float64 // fraction of TotalPipelineNanos, 0..1
}

// StageReport is one measured batch distilled into the stage budget.
type StageReport struct {
	Database string
	Queries  int

	// Per-stage wall time aggregated over every query in the batch, in
	// pipeline order (all six stages always present), with shares of
	// TotalPipelineNanos.
	Stages             []StageShare
	TotalPipelineNanos int64

	// Prefilter effectiveness: hits seen by detection, pairs that survived
	// into the sort, and the survival ratio pairs/hits.
	Hits                   int64
	Pairs                  int64
	PrefilterSurvivalRatio float64

	// Word visits: the neighbor words detection looks up, one per planned
	// word per (block, query) task, and what the visits would be without
	// the index's word filter (dbindex.Index.Words).
	Blocks           int
	WordVisits       int64
	UnfilteredVisits int64

	// The sort's share of pipeline time.
	SortShare float64

	// Batch scheduler behaviour.
	Workers              int
	Tasks                int64
	SchedulerUtilization float64

	// Latency distributions of scheduler task grains and whole queries.
	TaskNanos  obs.HistogramSnapshot
	QueryNanos obs.HistogramSnapshot
}

// StageBudget runs the standard synthetic workload (uniprot_sprot-like, all
// four query sets) through the muBLASTP engine with an isolated metric
// bundle and distills the registry into a StageReport.
func StageBudget(s Scale) (*StageReport, error) {
	w, err := Uniprot(s)
	if err != nil {
		return nil, err
	}
	queries := make([][]alphabet.Code, 0, 4*s.Batch)
	for _, name := range QuerySetNames {
		queries = append(queries, w.Queries[name]...)
	}

	// Warm pass on a discard-metrics engine: grows the scratch pools so the
	// measured pass reflects steady state, without polluting the counters.
	core.NewWithOptions(w.Cfg, w.Index, core.Options{Metrics: obs.Discard}).SearchBatch(queries, s.threads())

	met := obs.NewPipelineMetrics(obs.NewRegistry())
	e := core.NewWithOptions(w.Cfg, w.Index, core.Options{Metrics: met})
	sched := e.SearchBatchCtx(context.Background(), queries, s.threads()).Sched

	rep := &StageReport{
		Database:             w.Name,
		Queries:              len(queries),
		Hits:                 met.Hits.Value(),
		Pairs:                met.Pairs.Value(),
		Workers:              sched.Workers,
		Tasks:                sched.Tasks,
		SchedulerUtilization: sched.Utilization(),
		TaskNanos:            met.TaskNanos.Snapshot(),
		QueryNanos:           met.QueryNanos.Snapshot(),
	}
	var total int64
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		total += met.StageNanos[st].Value()
	}
	rep.TotalPipelineNanos = total
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		n := met.StageNanos[st].Value()
		share := 0.0
		if total > 0 {
			share = float64(n) / float64(total)
		}
		rep.Stages = append(rep.Stages, StageShare{Stage: st.String(), Nanos: n, Share: share})
	}
	if rep.Hits > 0 {
		rep.PrefilterSurvivalRatio = float64(rep.Pairs) / float64(rep.Hits)
	}
	rep.Blocks = len(w.Index.Blocks)
	var plan neighbor.Plan
	for _, q := range queries {
		plan.Fill(w.Cfg.Neighbors, q, &w.Index.Words)
		rep.WordVisits += int64(rep.Blocks * len(plan.Words()))
		plan.Fill(w.Cfg.Neighbors, q, nil)
		rep.UnfilteredVisits += int64(rep.Blocks * len(plan.Words()))
	}
	rep.SortShare = rep.Stages[obs.StageSort].Share
	return rep, nil
}

// Table renders the report with the paper's three stage-budget claims
// evaluated on this run (TestStageBudgetReport asserts the survival one).
func (r *StageReport) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Stage budget: per-stage time shares (%s, %d queries)", r.Database, r.Queries),
		Columns: []string{"stage", "time (ms)", "share (%)"},
	}
	for _, s := range r.Stages {
		t.AddRow(s.Stage, fmt.Sprintf("%.1f", float64(s.Nanos)/1e6), fmt.Sprintf("%.1f", 100*s.Share))
	}
	t.Note("prefilter survival: %d/%d hits = %.1f%% reach the sort (paper Fig 6: <5%% on real databases)",
		r.Pairs, r.Hits, 100*r.PrefilterSurvivalRatio)
	t.Note("word visits: %d over %d blocks (%d without the index's word filter)",
		r.WordVisits, r.Blocks, r.UnfilteredVisits)
	t.Note("sort share: %.1f%% of pipeline time (paper: sort stays a small slice); scheduler utilization %.1f%% over %d tasks",
		100*r.SortShare, 100*r.SchedulerUtilization, r.Tasks)
	t.Note("task p50/p95/p99: %v/%v/%v; query p50/p95/p99: %v/%v/%v",
		time.Duration(r.TaskNanos.P50), time.Duration(r.TaskNanos.P95), time.Duration(r.TaskNanos.P99),
		time.Duration(r.QueryNanos.P50), time.Duration(r.QueryNanos.P95), time.Duration(r.QueryNanos.P99))
	detect := r.Stages[obs.StageHitDetect].Share + r.Stages[obs.StagePrefilter].Share
	t.Note("paper claims: sort share < 5%%: %v; prefilter survival < 5%%: %v; hit detection + prefilter dominate: %v",
		r.SortShare < 0.05, r.PrefilterSurvivalRatio < 0.05,
		detect > r.Stages[obs.StageUngapped].Share && detect > r.Stages[obs.StageGapped].Share &&
			detect > r.Stages[obs.StageTraceback].Share)
	return t
}
