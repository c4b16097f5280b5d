package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/blast"
	"repro/internal/alphabet"
	"repro/internal/obs"
	"repro/internal/seqgen"
)

// fixture is a small serving setup: a resident database A, a saved
// replacement container B (superset of A), and a query that hits in both.
type fixture struct {
	params blast.Params
	ses    *blast.Session
	dbA    *blast.Database
	pathA  string
	pathB  string
	query  string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	p := blast.DefaultParams()
	p.BlockResidues = 2048
	dir := t.TempDir()
	g := seqgen.New(seqgen.UniprotProfile(), 42)
	raw := g.Database(14)
	var seqsA, seqsB []blast.Sequence
	for i, s := range raw {
		seq := blast.Sequence{Name: fmt.Sprintf("seq_%03d", i), Residues: alphabet.String(s)}
		if i < 10 {
			seqsA = append(seqsA, seq)
		}
		seqsB = append(seqsB, seq)
	}
	query := seqsA[2].Residues
	if len(query) > 150 {
		query = query[:150]
	}
	f := &fixture{params: p, query: query,
		pathA: filepath.Join(dir, "a.mublastp"), pathB: filepath.Join(dir, "b.mublastp")}
	for _, fc := range []struct {
		path string
		seqs []blast.Sequence
	}{{f.pathA, seqsA}, {f.pathB, seqsB}} {
		db, err := blast.NewDatabase(fc.seqs, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SaveFile(fc.path); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	f.dbA, err = blast.LoadFile(f.pathA, p)
	if err != nil {
		t.Fatal(err)
	}
	f.ses = blast.NewSession(f.dbA, p)
	return f
}

// start brings a server up on an ephemeral port with an isolated registry
// and returns it with its base URL. The server is torn down with the test.
func (f *fixture) start(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	srv := New(f.ses, f.params, cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, "http://" + addr
}

// wantHits is the reference answer for f.query against db, in wire form.
func wantHits(t *testing.T, db *blast.Database, query string) []Hit {
	t.Helper()
	res, err := db.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	hits := []Hit{}
	for _, h := range res.Hits {
		hits = append(hits, HitFromBlast(h))
	}
	return hits
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func searchOnce(t *testing.T, base, query string) (*http.Response, *SearchResponse) {
	t.Helper()
	resp, data := postJSON(t, base+"/search", SearchRequest{
		Queries: []QueryInput{{Name: "q", Residues: query}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /search: status %d: %s", resp.StatusCode, data)
	}
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, &sr
}

// TestSearchEndpointIdentity: a served search answers byte-identically to a
// direct library call against the same database.
func TestSearchEndpointIdentity(t *testing.T) {
	f := newFixture(t)
	_, base := f.start(t, Config{})
	want := wantHits(t, f.dbA, f.query)
	if len(want) == 0 {
		t.Fatal("fixture defect: reference query has no hits")
	}
	_, sr := searchOnce(t, base, f.query)
	if !sr.Results[0].Completed {
		t.Fatalf("query not completed: %s", sr.Results[0].Error)
	}
	if !reflect.DeepEqual(sr.Results[0].Hits, want) {
		t.Error("served hits differ from direct blast.Database.Search hits")
	}
	if sr.Degraded {
		t.Error("unloaded server reported degraded mode")
	}
	if sr.Generation != 1 {
		t.Errorf("db_generation = %d, want 1", sr.Generation)
	}
	if sr.Stats.Workers <= 0 || sr.Stats.Tasks <= 0 {
		t.Errorf("per-request sched stats missing: workers=%d tasks=%d", sr.Stats.Workers, sr.Stats.Tasks)
	}
}

// TestReloadEndpoint: a valid replacement swaps generations and serves the
// new database; a corrupt one is rejected 422 with the old still serving.
func TestReloadEndpoint(t *testing.T) {
	f := newFixture(t)
	srv, base := f.start(t, Config{})
	wantA := wantHits(t, f.dbA, f.query)

	// Corrupt replacement first: flip one byte mid-file.
	art, err := os.ReadFile(f.pathB)
	if err != nil {
		t.Fatal(err)
	}
	art[len(art)/2] ^= 0x40
	corrupt := filepath.Join(t.TempDir(), "corrupt.mublastp")
	if err := os.WriteFile(corrupt, art, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, base+"/reload", ReloadRequest{Path: corrupt})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("reload of corrupt container: status %d, want 422 (%s)", resp.StatusCode, data)
	}
	_, sr := searchOnce(t, base, f.query)
	if !reflect.DeepEqual(sr.Results[0].Hits, wantA) {
		t.Error("old database not serving identical results after rejected reload")
	}
	if sr.Generation != 1 {
		t.Errorf("generation after rejected reload = %d, want 1", sr.Generation)
	}
	if got, want := srv.Config().Registry.Snapshot()["index_bytes"], float64(f.dbA.IndexSizeBytes()); got != want {
		t.Errorf("index_bytes after rejected reload = %v, want %v", got, want)
	}

	// Now the valid replacement.
	resp, data = postJSON(t, base+"/reload", ReloadRequest{Path: f.pathB})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d: %s", resp.StatusCode, data)
	}
	var rr ReloadResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Generation != 2 || rr.Sequences != 14 {
		t.Errorf("reload response = %+v, want generation 2, 14 sequences", rr)
	}
	dbB, err := blast.LoadFile(f.pathB, f.params)
	if err != nil {
		t.Fatal(err)
	}
	wantB := wantHits(t, dbB, f.query)
	_, sr = searchOnce(t, base, f.query)
	if !reflect.DeepEqual(sr.Results[0].Hits, wantB) {
		t.Error("post-reload search does not serve the new database")
	}
	if got := srv.met.Reloads.Value(); got != 1 {
		t.Errorf("db_reloads = %d, want 1", got)
	}
	if got, want := srv.Config().Registry.Snapshot()["index_bytes"], float64(dbB.IndexSizeBytes()); got != want || want == float64(f.dbA.IndexSizeBytes()) {
		t.Errorf("index_bytes after reload = %v, want %v (before: %v)", got, want, f.dbA.IndexSizeBytes())
	}
	if got := srv.met.ReloadsRejected.Value(); got != 1 {
		t.Errorf("db_reloads_rejected = %d, want 1", got)
	}
}

// TestReloadRefusesMismatchedContainer: a container built with another
// matrix than the daemon searches with is a params mismatch, so /reload
// answers 422, the old generation keeps serving, and its refcount stays
// balanced.
func TestReloadRefusesMismatchedContainer(t *testing.T) {
	f := newFixture(t)
	_, base := f.start(t, Config{})
	wantA := wantHits(t, f.dbA, f.query)

	drifted := f.params
	drifted.Matrix = "BLOSUM50"
	db, err := blast.NewDatabase([]blast.Sequence{{Name: "only", Residues: f.query}}, drifted)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "blosum50.mublastp")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, base+"/reload", ReloadRequest{Path: path})
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(data), `database built with \"BLOSUM50\"`) {
		t.Fatalf("reload onto a BLOSUM50 container: status %d, want 422 naming its matrix (%s)", resp.StatusCode, data)
	}
	_, sr := searchOnce(t, base, f.query)
	if !reflect.DeepEqual(sr.Results[0].Hits, wantA) || sr.Generation != 1 || f.ses.Refs() != 1 {
		t.Errorf("after the refused reload: generation %d, refs %d, hits identical %v; want generation 1 serving unchanged, refs 1",
			sr.Generation, f.ses.Refs(), reflect.DeepEqual(sr.Results[0].Hits, wantA))
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
