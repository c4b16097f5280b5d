package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestWordLookupInlined: hit detection looks up every neighbor word's
// positions in the block's word table with dbindex.(*BlockIndex).Word, once
// per word visit, and that lookup must be inlined into core's pairScan.scan.
// Out of line it costs a call per visit, about 7% of detection on
// BenchmarkHitDetect (EXPERIMENTS.md, "PR-39 compact word table"); a few
// more operations in Word push it past the compiler's inlining budget
// without any other sign.
func TestWordLookupInlined(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	file, from, to := methodLines(t, "internal/core", "pairScan", "scan")
	out, err := exec.Command(goTool, "build", "-gcflags=-m", "./internal/core").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m ./internal/core: %v\n%s", err, out)
	}
	re := regexp.MustCompile(`(?m)^(?:\./)?` + regexp.QuoteMeta(file) + `:(\d+):\d+: inlining call to dbindex\.\(\*BlockIndex\)\.Word$`)
	for _, m := range re.FindAllStringSubmatch(string(out), -1) {
		if line, _ := strconv.Atoi(m[1]); line >= from && line <= to {
			return
		}
	}
	said := regexp.MustCompile(`(?m)^.*BlockIndex\)\.Word.*$`).FindAllString(string(out), -1)
	t.Errorf("dbindex.(*BlockIndex).Word is not inlined into pairScan.scan (%s:%d-%d); of Word, the compiler says:\n%s",
		file, from, to, strings.Join(said, "\n"))
}

// TestCheckStampInlined: the detection scan's per-run loop, core's
// pairScan.run, calls search.CheckStamp once per hit, and the call must be
// inlined into it for both slot widths the scan is instantiated for. Out of
// line, the hit's load, compare and conditional store become a call, and the
// loop loses what it is written for: a body with no data-dependent branch
// and its operands in registers. The compiler reports the inlining once per
// instantiation of run, without naming it, so the test requires one report
// per shape it compiled run for, and those shapes to be uint16 and uint32.
func TestCheckStampInlined(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	file, from, to := methodLines(t, "internal/core", "pairScan", "run")
	out, err := exec.Command(goTool, "build", "-gcflags=-m=2", "./internal/core").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2 ./internal/core: %v\n%s", err, out)
	}
	shapes := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m): cannot inline \(\*pairScan\[go\.shape\.(\w+)\]\)\.run: `).FindAllStringSubmatch(string(out), -1) {
		shapes[m[1]] = true
	}
	if len(shapes) != 2 || !shapes["uint16"] || !shapes["uint32"] {
		t.Fatalf("pairScan.run is compiled for shapes %v, want uint16 and uint32", shapes)
	}
	re := regexp.MustCompile(`(?m)^(?:\./)?` + regexp.QuoteMeta(file) + `:(\d+):\d+: inlining call to search\.CheckStamp$`)
	inlined := 0
	for _, m := range re.FindAllStringSubmatch(string(out), -1) {
		if line, _ := strconv.Atoi(m[1]); line >= from && line <= to {
			inlined++
		}
	}
	if inlined != len(shapes) {
		said := regexp.MustCompile(`(?m)^.*CheckStamp.*$`).FindAllString(string(out), -1)
		t.Errorf("search.CheckStamp is inlined into pairScan.run (%s:%d-%d) %d times for %d slot widths; of CheckStamp, the compiler says:\n%s",
			file, from, to, inlined, len(shapes), strings.Join(said, "\n"))
	}
}

// methodLines returns the file, relative to the module root, and the line
// range of the method name of type recv in the package in dir. A generic
// type's methods (func (k *recv[S]) name) count as its own.
func methodLines(t *testing.T, dir, recv, name string) (file string, from, to int) {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != name {
				continue
			}
			typ := fn.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			switch generic := typ.(type) {
			case *ast.IndexExpr:
				typ = generic.X
			case *ast.IndexListExpr:
				typ = generic.X
			}
			if id, ok := typ.(*ast.Ident); ok && id.Name == recv {
				return filepath.ToSlash(path), fset.Position(fn.Pos()).Line, fset.Position(fn.End()).Line
			}
		}
	}
	t.Fatalf("no method %s.%s in %s", recv, name, dir)
	return "", 0, 0
}
