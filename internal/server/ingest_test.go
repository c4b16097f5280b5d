package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/blast"
	"repro/internal/alphabet"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/seqgen"
)

// storeFixture is a daemon serving from a live ingest store.
type storeFixture struct {
	params blast.Params
	store  *blast.Store
	ses    *blast.Session
	base   []blast.Sequence
}

func ingestSeqs(n int, seed int64, prefix string) []blast.Sequence {
	g := seqgen.New(seqgen.UniprotProfile(), seed)
	raw := g.Database(n)
	seqs := make([]blast.Sequence, len(raw))
	for i, s := range raw {
		seqs[i] = blast.Sequence{Name: fmt.Sprintf("%s%03d", prefix, i), Residues: alphabet.String(s)}
	}
	return seqs
}

func newStoreFixture(t *testing.T) *storeFixture {
	t.Helper()
	p := blast.DefaultParams()
	p.BlockResidues = 2048
	base := ingestSeqs(12, 131, "base")
	st, err := blast.InitStore(t.TempDir(), base, p)
	if err != nil {
		t.Fatal(err)
	}
	db, err := st.Database()
	if err != nil {
		t.Fatal(err)
	}
	return &storeFixture{params: p, store: st, ses: blast.NewSession(db, p), base: base}
}

func (f *storeFixture) start(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	cfg.Store = f.store
	srv := New(f.ses, f.params, cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, "http://" + addr
}

func ingestBody(seqs []blast.Sequence, compact bool) IngestRequest {
	req := IngestRequest{Compact: compact}
	for _, s := range seqs {
		req.Sequences = append(req.Sequences, IngestSequence{Name: s.Name, Residues: s.Residues})
	}
	return req
}

// TestIngestEndpoint drives the happy path end to end: ingest a batch, see
// the manifest advance, and search the new sequences through the same
// daemon with results byte-identical to a from-scratch rebuild.
func TestIngestEndpoint(t *testing.T) {
	f := newStoreFixture(t)
	srv, base := f.start(t, Config{})
	batch := ingestSeqs(4, 132, "inc")
	baseIndex := f.ses.DB().IndexSizeBytes()
	if got := srv.Config().Registry.Snapshot()["index_bytes"]; got != float64(baseIndex) {
		t.Fatalf("index_bytes before ingest = %v, want %d", got, baseIndex)
	}

	resp, data := postJSON(t, base+"/ingest", ingestBody(batch, false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest: status %d: %s", resp.StatusCode, data)
	}
	var ir IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.ManifestSeq != 2 || ir.Deltas != 1 || ir.Sequences != len(batch) || ir.ManifestHash == "" {
		t.Fatalf("ingest response %+v", ir)
	}
	if ir.Generation != f.ses.Generation() {
		t.Fatalf("response generation %d, session at %d", ir.Generation, f.ses.Generation())
	}

	// The refcount balance survives the swap: one session reference only.
	if f.ses.Refs() != 1 {
		t.Fatalf("after ingest Refs() = %d, want 1", f.ses.Refs())
	}

	// The new sequence is searchable and byte-identical to a rebuild.
	rebuild, err := blast.NewDatabase(append(append([]blast.Sequence{}, f.base...), batch...), f.params)
	if err != nil {
		t.Fatal(err)
	}
	q := batch[0].Residues
	_, sr := searchOnce(t, base, q)
	want := wantHits(t, rebuild, q)
	if len(sr.Results) != 1 || !hitsEqual(sr.Results[0].Hits, want) {
		t.Fatalf("served hits after ingest differ from rebuild:\n got  %+v\n want %+v", sr.Results[0].Hits, want)
	}

	// Metrics tell the same story.
	snap := srv.Config().Registry.Snapshot()
	if snap["ingest_batches"] != int64(1) || snap["ingest_sequences"] != int64(len(batch)) {
		t.Fatalf("ingest counters %v / %v", snap["ingest_batches"], snap["ingest_sequences"])
	}
	if snap["manifest_seq"] != float64(2) || snap["delta_count"] != float64(1) {
		t.Fatalf("manifest gauges %v / %v", snap["manifest_seq"], snap["delta_count"])
	}
	if got, want := snap["index_bytes"], float64(f.ses.DB().IndexSizeBytes()); got != want || want <= float64(baseIndex) {
		t.Fatalf("index_bytes after ingest = %v, want %v, above the base's %d", got, want, baseIndex)
	}

	// A second ingest with Compact folds the deltas away.
	resp, data = postJSON(t, base+"/ingest", ingestBody(ingestSeqs(3, 133, "inc2"), true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest (compact): status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if !ir.Compacted || ir.Deltas != 0 {
		t.Fatalf("compact ingest response %+v", ir)
	}
}

func hitsEqual(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIngestValidationAndRefusals covers every honest refusal: no store
// (409), empty batch and bad residues (400), oversized batch (413), and
// draining (503).
func TestIngestValidationAndRefusals(t *testing.T) {
	// A daemon without a store: 409.
	plain := newFixture(t)
	_, plainURL := plain.start(t, Config{})
	resp, _ := postJSON(t, plainURL+"/ingest", ingestBody(ingestSeqs(1, 1, "x"), false))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("ingest without store: status %d, want 409", resp.StatusCode)
	}

	f := newStoreFixture(t)
	srv, base := f.start(t, Config{})
	oversized := make([]blast.Sequence, maxIngestSeqs+1)
	for i := range oversized {
		oversized[i] = blast.Sequence{Name: "big" + strconv.Itoa(i), Residues: "MKT"}
	}
	cases := []struct {
		name   string
		body   IngestRequest
		status int
	}{
		{"empty batch", IngestRequest{}, http.StatusBadRequest},
		{"unnamed sequence", ingestBody([]blast.Sequence{{Residues: "MKTAYIAK"}}, false), http.StatusBadRequest},
		{"bad residues", ingestBody([]blast.Sequence{{Name: "x", Residues: "MKT4YIAK"}}, false), http.StatusBadRequest},
		{"oversized", ingestBody(oversized, false), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, base+"/ingest", tc.body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.status, data)
		}
	}
	// Nothing was committed, and the store still works.
	if f.store.ManifestSeq() != 1 {
		t.Fatalf("manifest moved to %d on rejected batches", f.store.ManifestSeq())
	}

	srv.BeginDrain(0)
	resp, _ = postJSON(t, base+"/ingest", ingestBody(ingestSeqs(1, 3, "y"), false))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest while draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining shed carries no Retry-After")
	}
}

// TestIngestSingleFlight: concurrent ingests never queue — exactly one
// wins the slot, the rest shed 503 with Retry-After, and the store commits
// exactly the winners.
func TestIngestSingleFlight(t *testing.T) {
	f := newStoreFixture(t)
	srv, base := f.start(t, Config{})

	const attempts = 8
	statuses := make([]int, attempts)
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, base+"/ingest", ingestBody(ingestSeqs(2, int64(200+i), fmt.Sprintf("c%d", i)), false))
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	oks, sheds := 0, 0
	for _, code := range statuses {
		switch code {
		case http.StatusOK:
			oks++
		case http.StatusServiceUnavailable:
			sheds++
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if oks < 1 || oks+sheds != attempts {
		t.Fatalf("%d ok / %d shed of %d", oks, sheds, attempts)
	}
	if got := int(f.store.ManifestSeq()) - 1; got != oks {
		t.Fatalf("store committed %d batches, %d requests succeeded", got, oks)
	}
	snap := srv.Config().Registry.Snapshot()
	if snap["ingest_batches"] != int64(oks) || snap["ingest_shed"] != int64(sheds) {
		t.Fatalf("counters disagree: %v/%v vs %d ok/%d shed", snap["ingest_batches"], snap["ingest_shed"], oks, sheds)
	}
	if f.ses.Refs() != 1 {
		t.Fatalf("Refs() = %d after concurrent ingests, want 1", f.ses.Refs())
	}
}

// TestIngestFaultInjection: an armed server.ingest fault sheds with 503 and
// nothing durable; the metrics count it as a shed, not a failure.
func TestIngestFaultInjection(t *testing.T) {
	f := newStoreFixture(t)
	_, base := f.start(t, Config{})
	if err := faultinject.Enable("server.ingest=error#1", 1); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	resp, _ := postJSON(t, base+"/ingest", ingestBody(ingestSeqs(2, 7, "z"), false))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("injected ingest fault: status %d, want 503", resp.StatusCode)
	}
	if f.store.ManifestSeq() != 1 {
		t.Fatalf("manifest moved to %d on injected fault", f.store.ManifestSeq())
	}
	// Fault disarmed after #1: the retry lands.
	resp, _ = postJSON(t, base+"/ingest", ingestBody(ingestSeqs(2, 7, "z"), false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after injected fault: status %d", resp.StatusCode)
	}
}

// TestIngestFailedCommitIsNotTheClientsFault: the commit that breaks the store
// (its delta write fails after the WAL record is durable) answers 500 with
// the restart-to-recover message and counts as ingest_failed — not 400
// "invalid batch" — and so does every ingest after it; a batch that really
// is invalid still answers 400.
func TestIngestFailedCommitIsNotTheClientsFault(t *testing.T) {
	f := newStoreFixture(t)
	srv, base := f.start(t, Config{})
	if err := faultinject.Enable("store.delta.write=error#1", 1); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	for attempt := 1; attempt <= 2; attempt++ {
		resp, data := postJSON(t, base+"/ingest", ingestBody(ingestSeqs(2, 9, "w"), false))
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(data), "restart the daemon to run recovery") {
			t.Fatalf("ingest %d on a store broken by a failed commit: status %d, want 500 with the recovery message: %s",
				attempt, resp.StatusCode, data)
		}
		if failed, rejected := srv.met.IngestsFailed.Value(), srv.met.IngestsRejected.Value(); failed != int64(attempt) || rejected != 0 {
			t.Fatalf("after ingest %d: ingest_failed=%d ingest_rejected=%d, want %d and 0", attempt, failed, rejected, attempt)
		}
	}
	resp, data := postJSON(t, base+"/ingest", ingestBody([]blast.Sequence{{Residues: "MKTAYIAK"}}, false))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unnamed sequence on a broken store: status %d, want 400: %s", resp.StatusCode, data)
	}
}

// TestIngestFailedCompactionServesTheBatch: a compaction that fails after the
// batch is durable (the new base's container write is refused) does not hide
// the batch. The reply is 200 with compacted false, /search finds the batch
// byte-identical to a rebuild, the failure is counted, and the next ingest
// compacts.
func TestIngestFailedCompactionServesTheBatch(t *testing.T) {
	f := newStoreFixture(t)
	srv, base := f.start(t, Config{})
	if err := faultinject.Enable("store.delta.write=error#2", 1); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	batch := ingestSeqs(3, 151, "fc")
	resp, data := postJSON(t, base+"/ingest", ingestBody(batch, true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest whose compaction fails: status %d, want 200: %s", resp.StatusCode, data)
	}
	var ir IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Compacted || ir.Deltas != 1 || ir.ManifestSeq != 2 {
		t.Fatalf("ingest response %+v, want the batch as one delta, not compacted", ir)
	}
	rebuild, err := blast.NewDatabase(append(append([]blast.Sequence{}, f.base...), batch...), f.params)
	if err != nil {
		t.Fatal(err)
	}
	q := batch[0].Residues
	want := wantHits(t, rebuild, q)
	if len(want) == 0 {
		t.Fatal("the rebuild finds nothing for the batch's own sequence")
	}
	if _, sr := searchOnce(t, base, q); len(sr.Results) != 1 || !hitsEqual(sr.Results[0].Hits, want) {
		t.Fatalf("served hits after a failed compaction differ from rebuild:\n got  %+v\n want %+v", sr.Results, want)
	}
	if failed, ingestFailed := srv.met.CompactionsFailed.Value(), srv.met.IngestsFailed.Value(); failed != 1 || ingestFailed != 0 {
		t.Fatalf("ingest_compactions_failed=%d ingest_failed=%d, want 1 and 0", failed, ingestFailed)
	}

	resp, data = postJSON(t, base+"/ingest", ingestBody(ingestSeqs(2, 152, "fd"), true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("next ingest: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if !ir.Compacted || ir.Deltas != 0 {
		t.Fatalf("next ingest response %+v, want it compacted", ir)
	}
}

// TestIngestCompactionThatBreaksTheStore: a compaction whose manifest commit
// fails leaves the store broken, so the reply is 500 with the recovery
// message — but the batch was durable before the compaction started, and the
// daemon still serves it.
func TestIngestCompactionThatBreaksTheStore(t *testing.T) {
	f := newStoreFixture(t)
	srv, base := f.start(t, Config{})
	if err := faultinject.Enable("store.manifest.write=error#2", 1); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	batch := ingestSeqs(3, 153, "fb")
	resp, data := postJSON(t, base+"/ingest", ingestBody(batch, true))
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(data), "restart the daemon to run recovery") {
		t.Fatalf("ingest whose compaction breaks the store: status %d, want 500 with the recovery message: %s", resp.StatusCode, data)
	}
	if failed, compactFailed := srv.met.IngestsFailed.Value(), srv.met.CompactionsFailed.Value(); failed != 1 || compactFailed != 1 {
		t.Fatalf("ingest_failed=%d ingest_compactions_failed=%d, want 1 and 1", failed, compactFailed)
	}
	rebuild, err := blast.NewDatabase(append(append([]blast.Sequence{}, f.base...), batch...), f.params)
	if err != nil {
		t.Fatal(err)
	}
	q := batch[0].Residues
	if _, sr := searchOnce(t, base, q); len(sr.Results) != 1 || !hitsEqual(sr.Results[0].Hits, wantHits(t, rebuild, q)) {
		t.Fatalf("the durable batch is not served after the failed compaction: %+v", sr.Results)
	}
}

// TestIngestCompactAfterThreshold: CompactAfter folds deltas automatically
// once the count reaches the threshold.
func TestIngestCompactAfterThreshold(t *testing.T) {
	f := newStoreFixture(t)
	_, base := f.start(t, Config{CompactAfter: 2})
	var ir IngestResponse
	for i := 0; i < 3; i++ {
		resp, data := postJSON(t, base+"/ingest", ingestBody(ingestSeqs(2, int64(300+i), fmt.Sprintf("t%d", i)), false))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &ir); err != nil {
			t.Fatal(err)
		}
	}
	// Batch 1: 1 delta. Batch 2: reaches 2 -> compacted to 0. Batch 3: 1.
	if ir.Deltas != 1 {
		t.Fatalf("after threshold compaction, %d deltas (response %+v)", ir.Deltas, ir)
	}
	if f.store.NumDeltas() != 1 {
		t.Fatalf("store has %d deltas, want 1", f.store.NumDeltas())
	}
}

// TestReloadStoreEndpoint covers /reload on a daemon with a store: a swap
// onto its own live store routes through the in-process Store (no second
// recovery), and any other path is refused 409 with the store's view still
// serving — /search and /ingest must never answer from two databases.
func TestReloadStoreEndpoint(t *testing.T) {
	f := newStoreFixture(t)
	_, base := f.start(t, Config{})
	if _, err := f.store.Append(ingestSeqs(3, 141, "d")); err != nil {
		t.Fatal(err)
	}

	gen := f.ses.Generation()
	other, err := blast.NewDatabase(f.base, f.params)
	if err != nil {
		t.Fatal(err)
	}
	otherPath := filepath.Join(t.TempDir(), "other.mublastp")
	if err := other.SaveFile(otherPath); err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, base+"/reload", ReloadRequest{Path: otherPath})
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(data), "reloads only its directory") {
		t.Fatalf("reload of another path on a store daemon: status %d, want 409 (%s)", resp.StatusCode, data)
	}
	if f.ses.Generation() != gen || f.ses.Refs() != 1 {
		t.Fatalf("after the refused reload: generation %d, refs %d; want %d and 1", f.ses.Generation(), f.ses.Refs(), gen)
	}

	var rr ReloadResponse
	resp, data = postJSON(t, base+"/reload", ReloadRequest{Path: f.store.Dir()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("store reload: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Generation != gen+1 || rr.ManifestSeq != 2 || rr.Deltas != 1 {
		t.Fatalf("store reload response %+v (gen was %d)", rr, gen)
	}
	if !f.ses.DB().Tiered() {
		t.Fatal("reload onto the live store did not produce the tiered view")
	}
	if f.ses.Refs() != 1 {
		t.Fatalf("Refs() = %d after store reload, want 1", f.ses.Refs())
	}
}

// TestReloadRefcountBalance is the server-side half of the leak pin: every
// rejected /reload — bad path, unknown field, injected fault — leaves the
// serving generation's refcount at 1 and the generation unchanged.
func TestReloadRefcountBalance(t *testing.T) {
	f := newFixture(t)
	_, base := f.start(t, Config{})
	gen := f.ses.Generation()

	resp, _ := postJSON(t, base+"/reload", ReloadRequest{Path: "/does/not/exist.mublastp"})
	if resp.StatusCode == http.StatusOK {
		t.Fatal("reload of a missing path succeeded")
	}
	// A probe written for the deleted verify-only mode is refused, not
	// taken for a swap.
	resp, _ = postJSON(t, base+"/reload", map[string]any{"path": f.pathB, "verify_only": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reload naming verify_only: status %d, want 400", resp.StatusCode)
	}
	if err := faultinject.Enable("server.reload=error#1", 1); err != nil {
		t.Fatal(err)
	}
	resp, _ = postJSON(t, base+"/reload", ReloadRequest{Path: f.pathB})
	faultinject.Disable()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("reload with injected fault succeeded")
	}
	if f.ses.Refs() != 1 || f.ses.Generation() != gen {
		t.Fatalf("after rejected reloads: Refs=%d gen=%d, want 1/%d", f.ses.Refs(), f.ses.Generation(), gen)
	}
	// And a clean reload still swaps with balance intact.
	resp, _ = postJSON(t, base+"/reload", ReloadRequest{Path: f.pathB})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean reload: status %d", resp.StatusCode)
	}
	if f.ses.Refs() != 1 || f.ses.Generation() != gen+1 {
		t.Fatalf("after clean reload: Refs=%d gen=%d, want 1/%d", f.ses.Refs(), f.ses.Generation(), gen+1)
	}
}
