// The machine-readable stage-budget emission: BENCH_stage.json. Where the
// figure tables render text for humans, this path measures the paper's
// *stage budget* claims — hit detection + prefiltering dominate, the radix
// sort stays a small slice of runtime, and only a small minority of hits
// survive the prefilter into the sort — and writes them as JSON so the perf
// trajectory can be tracked mechanically across commits (`make bench-json`).
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/search"
)

// StageSchemaVersion identifies the BENCH_stage.json layout; bump on any
// incompatible change.
const StageSchemaVersion = "mublastp/bench-stage/v1"

// StageShare is one pipeline stage's slice of the total pipeline time.
type StageShare struct {
	Stage string  `json:"stage"`
	Nanos int64   `json:"nanos"`
	Share float64 `json:"share"` // fraction of total_pipeline_nanos, 0..1
}

// StageWorkload records what was run, for reproducibility.
type StageWorkload struct {
	Database  string `json:"database"`
	Sequences int    `json:"sequences"`
	Residues  int64  `json:"residues"`
	Blocks    int    `json:"blocks"`
	Queries   int    `json:"queries"`
	Threads   int    `json:"threads"`
	Seed      int64  `json:"seed"`
}

// StageClaims are the paper's stage-budget properties, evaluated on this
// run. The paper reports <5% prefilter survival on real databases (Fig 6)
// and this engine measures 4.4% on the benchmark's inputs under the same
// pairing rule (NCBI's, ungapped.Canon.PairCheck); the survival claim keeps
// its older, looser name and bound because the JSON schema is pinned, and
// core's TestPrefilterAblation holds the tight one.
type StageClaims struct {
	SortShareUnder5Pct          bool `json:"sort_share_under_5pct"`
	PrefilterSurvivalUnder25Pct bool `json:"prefilter_survival_under_25pct"`
	DetectPlusPrefilterDominant bool `json:"detect_plus_prefilter_dominant"`
}

// StageReport is the BENCH_stage.json payload.
type StageReport struct {
	Schema   string        `json:"schema"`
	Workload StageWorkload `json:"workload"`

	// Per-stage wall time aggregated over every query in the batch, in
	// pipeline order (all six stages always present), with shares of
	// TotalPipelineNanos.
	Stages             []StageShare `json:"stages"`
	TotalPipelineNanos int64        `json:"total_pipeline_nanos"`
	WallNanos          int64        `json:"wall_nanos"`

	// Prefilter effectiveness: hits seen by detection, pairs that survived
	// into the sort, and the survival ratio pairs/hits.
	Hits                   int64   `json:"hits"`
	Pairs                  int64   `json:"pairs"`
	PrefilterSurvivalRatio float64 `json:"prefilter_survival_ratio"`

	// Sort pressure: records through the reorder stage and the sort's
	// share of pipeline time.
	SortedItems int64   `json:"sorted_items"`
	SortShare   float64 `json:"sort_share"`

	// Batch scheduler behaviour.
	Scheduler            string  `json:"scheduler"`
	Workers              int     `json:"workers"`
	Tasks                int64   `json:"tasks"`
	SchedulerUtilization float64 `json:"scheduler_utilization"`

	// Latency distributions of scheduler task grains and whole queries.
	TaskNanos  obs.HistogramSnapshot `json:"task_nanos"`
	QueryNanos obs.HistogramSnapshot `json:"query_nanos"`

	Claims StageClaims `json:"paper_claims"`
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
	var sched search.SchedStats
	wall := TimeIt(func() { sched = e.SearchBatchCtx(context.Background(), queries, s.threads()).Sched })

	rep := &StageReport{
		Schema: StageSchemaVersion,
		Workload: StageWorkload{
			Database:  w.Name,
			Sequences: w.DB.NumSeqs(),
			Residues:  w.DB.TotalResidues,
			Blocks:    len(w.Index.Blocks),
			Queries:   len(queries),
			Threads:   s.threads(),
			Seed:      s.Seed,
		},
		WallNanos:            int64(wall),
		Hits:                 met.Hits.Value(),
		Pairs:                met.Pairs.Value(),
		SortedItems:          met.SortedItems.Value(),
		Scheduler:            sched.Scheduler,
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
	rep.SortShare = rep.Stages[obs.StageSort].Share
	detectShare := rep.Stages[obs.StageHitDetect].Share + rep.Stages[obs.StagePrefilter].Share
	rep.Claims = StageClaims{
		SortShareUnder5Pct:          rep.SortShare < 0.05,
		PrefilterSurvivalUnder25Pct: rep.PrefilterSurvivalRatio < 0.25,
		DetectPlusPrefilterDominant: detectShare > rep.Stages[obs.StageUngapped].Share &&
			detectShare > rep.Stages[obs.StageGapped].Share &&
			detectShare > rep.Stages[obs.StageTraceback].Share,
	}
	return rep, nil
}

// Table renders the report for the text/markdown experiment output.
func (r *StageReport) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Stage budget: per-stage time shares (%s, %d queries)", r.Workload.Database, r.Workload.Queries),
		Columns: []string{"stage", "time (ms)", "share (%)"},
	}
	for _, s := range r.Stages {
		t.AddRow(s.Stage, fmt.Sprintf("%.1f", float64(s.Nanos)/1e6), fmt.Sprintf("%.1f", 100*s.Share))
	}
	t.Note("prefilter survival: %d/%d hits = %.1f%% reach the sort (paper Fig 6: <5%% on real databases)",
		r.Pairs, r.Hits, 100*r.PrefilterSurvivalRatio)
	t.Note("sort share: %.1f%% of pipeline time (paper: sort stays a small slice); scheduler %s utilization %.1f%% over %d tasks",
		100*r.SortShare, r.Scheduler, 100*r.SchedulerUtilization, r.Tasks)
	t.Note("task p50/p95/p99: %v/%v/%v; query p50/p95/p99: %v/%v/%v",
		time.Duration(r.TaskNanos.P50), time.Duration(r.TaskNanos.P95), time.Duration(r.TaskNanos.P99),
		time.Duration(r.QueryNanos.P50), time.Duration(r.QueryNanos.P95), time.Duration(r.QueryNanos.P99))
	return t
}

// WriteJSON writes the report to path (pretty-printed, trailing newline).
func (r *StageReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding stage report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing stage report: %w", err)
	}
	return nil
}
