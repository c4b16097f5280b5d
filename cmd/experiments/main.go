// Command experiments regenerates every table and figure of the paper's
// evaluation section (Section V) on synthetic, scaled-down workloads. See
// DESIGN.md for the per-experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured comparisons.
//
// Usage:
//
//	experiments                  # every experiment, default scale
//	experiments -exp fig9        # one experiment
//	experiments -scale small     # quick pass
//	experiments -markdown        # markdown tables (for EXPERIMENTS.md)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs/prof"
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
}

// selectExperiments returns what -exp name runs: all is every experiment.
func selectExperiments(name string) ([]experiment, error) {
	var out []experiment
	for _, e := range experiments {
		if e.name == name || name == "all" {
			out = append(out, e)
		}
	}
	if out == nil {
		return nil, fmt.Errorf("unknown experiment %q (want all, %s)", name, names())
	}
	return out, nil
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
	)
	flag.Parse()
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
