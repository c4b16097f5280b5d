package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden result files")

// TestGoldenResults pins the engine's complete output on fixed workloads.
// Any change to the heuristics — word hits, two-hit pairing, extension
// semantics, gapped scoring, ranking — shows up as a golden diff, which
// must then be an intentional, reviewed change (regenerate with
// `go test ./internal/core -run Golden -update-golden`). The second workload
// is one where NCBI's extension rule (walk right only when the left walk
// reaches the first hit) moves the output; the first is blind to it.
func TestGoldenResults(t *testing.T) {
	var b strings.Builder
	for _, w := range []struct {
		seed  int64
		nSeqs int
	}{{1001, 80}, {1002, 120}} {
		fmt.Fprintf(&b, "workload seed %d subjects %d\n", w.seed, w.nSeqs)
		cfg, ix, queries := world(t, w.seed, w.nSeqs, 4, 160, 8192)
		results := New(cfg, ix).SearchBatch(queries, 1)
		for qi, q := range queries {
			res := results[qi]
			fmt.Fprintf(&b, "query %d len %d hits %d pairs %d exts %d kept %d gapped %d\n",
				qi, len(q), res.Stats.Hits, res.Stats.Pairs, res.Stats.Extensions,
				res.Stats.Kept, res.Stats.GappedExts)
			for _, h := range res.HSPs {
				fmt.Fprintf(&b, "  %s score %d q[%d:%d] s[%d:%d] e %.3g ops %s\n",
					h.SubjectName, h.Aln.Score, h.Aln.QStart, h.Aln.QEnd,
					h.Aln.SStart, h.Aln.SEnd, h.EValue, h.Aln.Ops)
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "golden_results.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			g, w := "", ""
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("golden mismatch at line %d:\n  got:  %q\n  want: %q", i+1, g, w)
			}
		}
		t.Fatal("golden mismatch (length)")
	}
}
