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

// methodLines returns the file, relative to the module root, and the line
// range of the method name of type recv in the package in dir.
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
			if id, ok := typ.(*ast.Ident); ok && id.Name == recv {
				return filepath.ToSlash(path), fset.Position(fn.Pos()).Line, fset.Position(fn.End()).Line
			}
		}
	}
	t.Fatalf("no method %s.%s in %s", recv, name, dir)
	return "", 0, 0
}
