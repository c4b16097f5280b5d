package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/obs"
	"repro/internal/reqtrace"
	"repro/internal/seqgen"
)

// TestTraceWritesOneTreePerRun runs a traced batch through the command and
// reads the -trace file back: one linked reqtrace tree stamped mublastp,
// one query:<name> child per query, and the six stage spans under each.
func TestTraceWritesOneTreePerRun(t *testing.T) {
	dir := t.TempDir()
	g := seqgen.New(seqgen.UniprotProfile(), 11)
	db := g.Database(120)
	writeFASTA := func(name string, seqs [][]alphabet.Code) string {
		var b strings.Builder
		for i, s := range seqs {
			fmt.Fprintf(&b, ">%s%d\n%s\n", name, i, alphabet.String(s))
		}
		path := filepath.Join(dir, name+".fasta")
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	subjects := writeFASTA("s", db)
	queries := [][]alphabet.Code{db[3], db[40], g.Sequence(200)}
	queryPath := writeFASTA("q", queries)
	tracePath := filepath.Join(dir, "trace.jsonl")

	stdout := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	os.Stdout = devnull
	os.Args = []string{"mublastp", "-subjects", subjects, "-query", queryPath, "-trace", tracePath, "-threads", "2"}
	err = run()
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	traces, err := reqtrace.ReadTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("got %d trace trees, want 1 per run", len(traces))
	}
	tr := traces[0]
	if err := tr.Linked(); err != nil {
		t.Fatal(err)
	}
	if tr.Daemon != "mublastp" || tr.Outcome != reqtrace.OutcomeOK {
		t.Errorf("daemon %q outcome %q, want mublastp ok", tr.Daemon, tr.Outcome)
	}
	root := tr.RootSpan()
	if len(root.Children) != len(queries) {
		t.Fatalf("root has %d children, want one per query (%d)", len(root.Children), len(queries))
	}
	for i, q := range root.Children {
		if want := fmt.Sprintf("query:q%d", i); q.Name != want {
			t.Errorf("child %d is %q, want %q", i, q.Name, want)
		}
		if len(q.Children) != int(obs.NumStages) {
			t.Fatalf("%s has %d stage spans, want %d", q.Name, len(q.Children), obs.NumStages)
		}
		var sum int64
		for j, st := range q.Children {
			if want := "stage:" + obs.Stage(j).String(); st.Name != want {
				t.Errorf("%s stage %d is %q, want %q", q.Name, j, st.Name, want)
			}
			sum += st.Nanos
		}
		if sum != q.Nanos {
			t.Errorf("%s spans %d ns, its stages sum to %d", q.Name, q.Nanos, sum)
		}
	}
}
