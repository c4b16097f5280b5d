// Command experiments regenerates every table and figure of the paper's
// evaluation section (Section V) on synthetic, scaled-down workloads. See
// DESIGN.md for the per-experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured comparisons.
//
// Usage:
//
//	experiments                  # every experiment but replay, default scale
//	experiments -exp fig9        # one experiment
//	experiments -scale small     # quick pass
//	experiments -markdown        # markdown tables (for EXPERIMENTS.md)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs/prof"
	"repro/internal/reqtrace"
)

type experiment struct {
	name string
	desc string
	run  func(bench.Scale) (*bench.Table, error)
}

var experiments = []experiment{
	{"fig2", "profile of query-indexed vs db-indexed NCBI", bench.Fig2},
	{"fig6", "hits remaining after pre-filtering", bench.Fig6},
	{"fig7", "sequence length distributions", bench.Fig7},
	{"fig8", "block-size sweep", bench.Fig8},
	{"fig9", "single-node engine comparison", bench.Fig9},
	{"fig10", "multi-node scaling vs mpiBLAST", bench.Fig10},
	{"stage", "stage budget: per-stage time shares and the paper's three stage claims", runStage},
	{"index-size", "two-level vs expanded index size", bench.IndexSize},
	{"verify", "Section V-E output verification", bench.Verify},
	{"sensitivity", "planted homologs found (vs Smith-Waterman) beside pairs and extensions spent", bench.Sensitivity},
	{"ingest", "incremental ingest: delta append vs full rebuild, durable-to-durable", bench.IngestLatency},
	{"replay", "re-issue a traced workload against a live daemon (-replay-target, -replay-workload)", runReplay},
}

// selectExperiments returns what -exp name runs: all is every experiment
// but replay, which needs a live daemon and a trace (its -replay-* flags).
func selectExperiments(name string) ([]experiment, error) {
	var out []experiment
	for _, e := range experiments {
		if e.name == name || name == "all" && e.name != "replay" {
			out = append(out, e)
		}
	}
	if out == nil {
		return nil, fmt.Errorf("unknown experiment %q (want all, %s)", name, names())
	}
	return out, nil
}

// Replay experiment inputs (-replay-* flags): the live daemon to load and
// the traced workload (a daemon's -trace JSONL file) to re-issue with
// original inter-arrival timing.
var (
	replayTarget   string
	replayWorkload string
	replaySpeed    float64
)

func runReplay(bench.Scale) (*bench.Table, error) {
	if replayTarget == "" || replayWorkload == "" {
		return nil, fmt.Errorf("replay needs -replay-target (daemon base URL) and -replay-workload (trace JSONL)")
	}
	f, err := os.Open(replayWorkload)
	if err != nil {
		return nil, err
	}
	recs, err := reqtrace.ReadRecords(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	res, err := reqtrace.Replay(context.Background(), reqtrace.ReplayConfig{
		Target: replayTarget, Speed: replaySpeed, Seed: 1,
	}, recs)
	if err != nil {
		return nil, err
	}
	ms := func(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/float64(time.Millisecond)) }
	t := &bench.Table{
		Title:   fmt.Sprintf("replay of %s against %s", replayWorkload, replayTarget),
		Columns: []string{"metric", "value"},
	}
	t.AddRow("requests", res.Sent)
	for _, oc := range []string{reqtrace.OutcomeOK, reqtrace.OutcomeShed, reqtrace.OutcomeTimeout,
		reqtrace.OutcomeRejected, reqtrace.OutcomeError} {
		if n := res.ByOutcome[oc]; n > 0 {
			t.AddRow(oc, n)
		}
	}
	t.AddRow("shed rate", fmt.Sprintf("%.3f", res.ShedRate()))
	t.AddRow("p50 ms", ms(res.LatencyQuantile(0.50)))
	t.AddRow("p95 ms", ms(res.LatencyQuantile(0.95)))
	t.AddRow("p99 ms", ms(res.LatencyQuantile(0.99)))
	t.AddRow("wall s", fmt.Sprintf("%.2f", float64(res.WallNS)/float64(time.Second)))
	speed := replaySpeed
	if speed <= 0 {
		speed = 1
	}
	t.Note("open-loop replay at %gx recorded pacing; latency quantiles over completed requests", speed)
	return t, nil
}

func runStage(s bench.Scale) (*bench.Table, error) {
	rep, err := bench.StageBudget(s)
	if err != nil {
		return nil, err
	}
	return rep.Table(), nil
}

func main() {
	var (
		expName  = flag.String("exp", "all", "experiment: all, "+names())
		scale    = flag.String("scale", "default", "workload scale: small or default")
		batch    = flag.Int("batch", 0, "override queries per batch")
		seqs     = flag.Int("seqs", 0, "override database sequence counts")
		threads  = flag.Int("threads", 0, "override thread count")
		seed     = flag.Int64("seed", 0, "override generator seed")
		blockKB  = flag.Int64("block-kb", 0, "override index block size (KB; 0 = scaled L3 rule)")
		markdown = flag.Bool("markdown", false, "emit markdown tables")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile after the experiments to this file")
		rTarget  = flag.String("replay-target", "", "replay experiment: daemon base URL (e.g. http://127.0.0.1:8044)")
		rFile    = flag.String("replay-workload", "", "replay experiment: workload to re-issue, a daemon's -trace JSONL")
		rSpeed   = flag.Float64("replay-speed", 1, "replay experiment: inter-arrival speedup (2 = twice as fast)")
	)
	flag.Parse()
	replayTarget, replayWorkload, replaySpeed = *rTarget, *rFile, *rSpeed
	selected, err := selectExperiments(*expName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		}
	}()

	s := bench.DefaultScale()
	if *scale == "small" {
		s = bench.SmallScale()
	}
	if *batch > 0 {
		s.Batch = *batch
	}
	if *seqs > 0 {
		s.UniprotSeqs, s.EnvNRSeqs = *seqs, *seqs*2
	}
	if *threads > 0 {
		s.Threads = *threads
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	if *blockKB > 0 {
		s.BlockBytes = *blockKB << 10
	}

	for _, e := range selected {
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", e.name, e.desc)
		start := time.Now()
		table, err := e.run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "  done in %v\n", time.Since(start).Round(time.Millisecond))
		if *markdown {
			fmt.Println(table.Markdown())
		} else {
			fmt.Println(table.String())
		}
	}
}

func names() string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return strings.Join(out, ", ")
}
