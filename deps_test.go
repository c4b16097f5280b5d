package repro_test

import (
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// servingDeps is every package of this module the two daemons link. The
// engine they serve is muBLASTP alone: the baselines, the experiment
// harness, the simulators and the cluster model are for cmd/experiments and
// tests. Adding a line here is a decision to ship that package in the
// serving binaries; TestServingDependencyClosure names the import chain that
// asks for it.
var servingDeps = []string{
	"repro/blast",
	"repro/cmd/mublastpd",
	"repro/cmd/mublastpr",
	"repro/internal/alphabet",
	"repro/internal/core",
	"repro/internal/dbase",
	"repro/internal/dbindex",
	"repro/internal/fasta",
	"repro/internal/faultinject",
	"repro/internal/gapped",
	"repro/internal/hit",
	"repro/internal/hitsort",
	"repro/internal/matrix",
	"repro/internal/neighbor",
	"repro/internal/obs",
	"repro/internal/parallel",
	"repro/internal/reqtrace",
	"repro/internal/router",
	"repro/internal/search",
	"repro/internal/server",
	"repro/internal/sigctx",
	"repro/internal/stats",
	"repro/internal/ungapped",
}

func TestServingDependencyClosure(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(goTool, "list", "-deps",
		"-f", `{{.ImportPath}} {{join .Imports " "}}`, "./cmd/mublastpd", "./cmd/mublastpr").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	imports := map[string][]string{} // module package -> module packages it imports
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		if !strings.HasPrefix(fields[0], "repro/") {
			continue
		}
		imports[fields[0]] = nil
		for _, imp := range fields[1:] {
			if strings.HasPrefix(imp, "repro/") {
				imports[fields[0]] = append(imports[fields[0]], imp)
			}
		}
	}

	// importer[p] is the package through which a breadth-first walk from the
	// daemons first reached p: following it back gives a shortest chain.
	importer := map[string]string{}
	queue := []string{"repro/cmd/mublastpd", "repro/cmd/mublastpr"}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, imp := range imports[p] {
			if _, seen := importer[imp]; !seen {
				importer[imp] = p
				queue = append(queue, imp)
			}
		}
	}
	chain := func(p string) string {
		path := []string{p}
		for importer[p] != "" {
			p = importer[p]
			path = append([]string{p}, path...)
		}
		return strings.Join(path, " -> ")
	}

	allowed := map[string]bool{}
	for _, p := range servingDeps {
		allowed[p] = true
		if _, linked := imports[p]; !linked {
			t.Errorf("%s is in servingDeps but the daemons no longer link it: delete the line", p)
		}
	}
	var extra []string
	for p := range imports {
		if !allowed[p] {
			extra = append(extra, p)
		}
	}
	sort.Strings(extra)
	for _, p := range extra {
		t.Errorf("the daemons link %s, which is not in servingDeps: %s", p, chain(p))
	}
}
