package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func selectedNames(t *testing.T, name string) []string {
	t.Helper()
	exps, err := selectExperiments(name)
	if err != nil {
		t.Fatalf("selectExperiments(%q): %v", name, err)
	}
	var out []string
	for _, e := range exps {
		out = append(out, e.name)
	}
	return out
}

// TestAllRunsEveryFlaglessExperiment pins what -exp all runs: every
// experiment, in table order. None needs a flag of its own.
func TestAllRunsEveryFlaglessExperiment(t *testing.T) {
	want := []string{"fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "stage",
		"index-size", "verify", "sensitivity", "ingest"}
	if got := selectedNames(t, "all"); !slices.Equal(got, want) {
		t.Fatalf("-exp all runs %v, want %v", got, want)
	}
}

func TestUnknownExperimentRefused(t *testing.T) {
	for _, name := range []string{"fig3", "", "Fig2"} {
		if exps, err := selectExperiments(name); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("selectExperiments(%q) = %d experiments, %v; want unknown experiment", name, len(exps), err)
		}
	}
}

// TestExperimentsDocRegenerationLine pins EXPERIMENTS.md's regeneration
// command to the experiments -exp all runs.
func TestExperimentsDocRegenerationLine(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`-exp <([^>]*)>`).FindSubmatch(doc)
	if m == nil {
		t.Fatal("EXPERIMENTS.md has no `-exp <name|...>` regeneration line")
	}
	if got, want := strings.Split(string(m[1]), "|"), selectedNames(t, "all"); !slices.Equal(got, want) {
		t.Fatalf("EXPERIMENTS.md regenerates %v, -exp all runs %v", got, want)
	}
}
