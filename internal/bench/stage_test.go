package bench

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// TestStageBudgetReport runs the stage-budget measurement at the small scale
// and validates the report's internal consistency.
func TestStageBudgetReport(t *testing.T) {
	rep, err := StageBudget(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	names := obs.StageNames()
	if len(rep.Stages) != len(names) {
		t.Fatalf("report has %d stages, want %d", len(rep.Stages), len(names))
	}
	var shareSum float64
	var nanosSum int64
	for i, s := range rep.Stages {
		if s.Stage != names[i] {
			t.Errorf("stage %d = %q, want %q", i, s.Stage, names[i])
		}
		if s.Nanos < 0 || s.Share < 0 || s.Share > 1 {
			t.Errorf("stage %s out of range: %+v", s.Stage, s)
		}
		shareSum += s.Share
		nanosSum += s.Nanos
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Errorf("stage shares sum to %v, want 1", shareSum)
	}
	if nanosSum != rep.TotalPipelineNanos {
		t.Errorf("stage nanos sum %d != total %d", nanosSum, rep.TotalPipelineNanos)
	}
	if rep.TotalPipelineNanos <= 0 {
		t.Errorf("degenerate pipeline total %d", rep.TotalPipelineNanos)
	}
	if rep.Hits <= 0 || rep.Pairs <= 0 || rep.Pairs > rep.Hits {
		t.Errorf("hit accounting wrong: hits %d, pairs %d", rep.Hits, rep.Pairs)
	}
	if rep.PrefilterSurvivalRatio <= 0 || rep.PrefilterSurvivalRatio > 1 {
		t.Errorf("prefilter survival %v outside (0, 1]", rep.PrefilterSurvivalRatio)
	}
	// The paper's survival claim (Fig 6): a hit count, so deterministic.
	// The sort-share and detection claims are host-timed, so the table
	// prints them and nothing asserts them.
	if rep.PrefilterSurvivalRatio >= 0.05 {
		t.Errorf("prefilter survival %d/%d = %.2f%%, paper claims < 5%%",
			rep.Pairs, rep.Hits, 100*rep.PrefilterSurvivalRatio)
	}
	if rep.SortShare != rep.Stages[obs.StageSort].Share {
		t.Errorf("sort share %v != stage entry %v", rep.SortShare, rep.Stages[obs.StageSort].Share)
	}
	if rep.Tasks <= 0 || rep.Workers <= 0 {
		t.Errorf("degenerate scheduler stats: %d tasks, %d workers", rep.Tasks, rep.Workers)
	}
	if rep.SchedulerUtilization <= 0 || rep.SchedulerUtilization > 1.05 {
		t.Errorf("scheduler utilization %v outside (0, 1.05]", rep.SchedulerUtilization)
	}
	if rep.TaskNanos.Count != rep.Tasks {
		t.Errorf("task histogram count %d != tasks %d", rep.TaskNanos.Count, rep.Tasks)
	}
	if rep.QueryNanos.Count != int64(rep.Queries) {
		t.Errorf("query histogram count %d != queries %d", rep.QueryNanos.Count, rep.Queries)
	}
	if tbl := rep.Table(); len(tbl.Rows) != len(names) {
		t.Errorf("table has %d rows, want %d", len(tbl.Rows), len(names))
	}
}
