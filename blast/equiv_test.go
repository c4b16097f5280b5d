package blast

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// assertSameAsMonolithic is the one byte-identity oracle of the partitioned
// search: whatever path produced got — shards merged, tiers merged, results
// taken over the wire — it must equal the monolithic search's answer query
// for query: the same completion flags, struct-equal hits (ids, scores,
// E-values, coordinates, order), and identical rendered output.
func assertSameAsMonolithic(t testing.TB, label string, got, mono *BatchResult) {
	t.Helper()
	if len(got.Results) != len(mono.Results) {
		t.Fatalf("%s: %d results, monolithic %d", label, len(got.Results), len(mono.Results))
	}
	for qi := range mono.Results {
		if got.Completed[qi] != mono.Completed[qi] {
			t.Fatalf("%s query %d: completed=%v, monolithic %v", label, qi, got.Completed[qi], mono.Completed[qi])
		}
		g, w := got.Results[qi], mono.Results[qi]
		if len(g.Hits) != len(w.Hits) {
			t.Fatalf("%s query %d: %d hits, monolithic %d", label, qi, len(g.Hits), len(w.Hits))
		}
		for j := range w.Hits {
			if g.Hits[j] != w.Hits[j] {
				t.Fatalf("%s query %d hit %d:\n got  %+v\n want %+v", label, qi, j, g.Hits[j], w.Hits[j])
			}
		}
		if gt, wt := g.Tabular("q"), w.Tabular("q"); gt != wt {
			t.Fatalf("%s query %d: rendered output differs:\n got:\n%s\n want:\n%s", label, qi, gt, wt)
		}
	}
}

func countHits(br *BatchResult) int {
	n := 0
	for _, r := range br.Results {
		n += len(r.Hits)
	}
	return n
}

func searchCtx(t testing.TB, db *Database, queries []string) *BatchResult {
	t.Helper()
	br, err := db.SearchBatchCtx(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	return br
}

// mergedShards searches every shard and merges, optionally sending each
// shard's result through the wire form first.
func mergedShards(t testing.TB, shards []*Database, queries []string, overWire bool) *BatchResult {
	t.Helper()
	parts := make([]*ShardResult, len(shards))
	for s, sd := range shards {
		part, err := sd.SearchShardBatchCtx(context.Background(), queries, s, len(shards))
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if overWire {
			part = roundTrip(t, part, queries)
		}
		parts[s] = part
	}
	merged, err := MergeShards(queries, parts)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestMergeRecapCuts drives the merge's last step on both instantiations:
// with MaxResults below the number of hits the parts hand in together, the
// re-cap has to cut, and what survives must be exactly the monolithic list.
func TestMergeRecapCuts(t *testing.T) {
	base := storeSeqs(60, 41, "base")
	b1 := storeSeqs(40, 41, "d1x") // the same residues under other names: every base hit has a twin in the delta
	p := storeParams()
	p.MaxResults = 3
	mono, err := NewDatabase(concat(base, b1), p)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{queryFrom(base, 150), base[7].Residues, base[20].Residues}
	want := searchCtx(t, mono, queries)

	// partHits sums what the parts report before the merge: the re-cap only
	// cuts when that exceeds what the merge may keep.
	partHits := func(raws ...*rawBatch) int {
		n := 0
		for _, raw := range raws {
			for _, res := range raw.results {
				n += len(res.HSPs)
			}
		}
		return n
	}

	shards, err := mono.Shards(3)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*ShardResult, len(shards))
	var raws []*rawBatch
	for s, sd := range shards {
		if parts[s], err = sd.SearchShardBatchCtx(context.Background(), queries, s, len(shards)); err != nil {
			t.Fatal(err)
		}
		raws = append(raws, &parts[s].rawBatch)
	}
	if partHits(raws...) <= countHits(want) {
		t.Fatalf("shards hand in %d hits for %d reported; the re-cap would not cut", partHits(raws...), countHits(want))
	}
	merged, err := MergeShards(queries, parts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAsMonolithic(t, "shards", merged, want)

	st, err := InitStore(t.TempDir(), base, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(b1); err != nil {
		t.Fatal(err)
	}
	tiered, err := st.Database()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := encodeQueries(queries)
	if err != nil {
		t.Fatal(err)
	}
	raws = raws[:0]
	for _, pt := range tiered.parts {
		raws = append(raws, pt.searchBatch(context.Background(), enc, 1))
	}
	if partHits(raws...) <= countHits(want) {
		t.Fatalf("tiers hand in %d hits for %d reported; the re-cap would not cut", partHits(raws...), countHits(want))
	}
	assertSameAsMonolithic(t, "tiers", searchCtx(t, tiered, queries), want)
}

// TestCrossPartOverlapDedupe splits one long subject into chunks that land
// in different parts and queries across a chunk overlap: both chunks find
// the alignment, each in its own part, and only the shared convertHSPs pass
// after the merge can drop the duplicate. Only shards can separate the
// chunks of one subject (a store keeps a batch, chunks included, in one
// container), so the shard instantiation carries this case.
func TestCrossPartOverlapDedupe(t *testing.T) {
	seqs := storeSeqs(40, 77, "s")
	long := strings.Repeat(seqs[3].Residues, 4)[:900] // chunks of 400 with 64 overlap: 3 of them
	seqs = append(seqs, Sequence{Name: "long", Residues: long})
	p := storeParams()
	mono, err := NewDatabase(seqs, p)
	if err != nil {
		t.Fatal(err)
	}
	// The chunk boundary sits at 400-64=336..400; an alignment inside the
	// overlap is found in both chunks.
	queries := []string{long[340:396], long[300:440]}
	want := searchCtx(t, mono, queries)

	for _, n := range []int{2, 3} {
		shards, err := mono.Shards(n)
		if err != nil {
			t.Fatal(err)
		}
		// Before the merge the duplicate is there: two shards report the same
		// alignment (query, score, start in the original's coordinates).
		type aln struct{ query, score, qStart, sStart int }
		foundBy := map[aln]map[int]bool{}
		parts := make([]*ShardResult, n)
		for s, sd := range shards {
			if parts[s], err = sd.SearchShardBatchCtx(context.Background(), queries, s, n); err != nil {
				t.Fatal(err)
			}
			for qi := range queries {
				for i, m := range parts[s].meta[qi] {
					if m.origName != "long" {
						continue
					}
					h := &parts[s].results[qi].HSPs[i]
					k := aln{qi, h.Aln.Score, h.Aln.QStart, h.Aln.SStart + m.offset}
					if foundBy[k] == nil {
						foundBy[k] = map[int]bool{}
					}
					foundBy[k][s] = true
				}
			}
		}
		crossPart := 0
		for _, by := range foundBy {
			if len(by) > 1 {
				crossPart++
			}
		}
		if crossPart == 0 {
			t.Fatalf("n=%d: no alignment on the long subject was found by two shards; nothing to dedupe across parts", n)
		}
		merged, err := MergeShards(queries, parts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAsMonolithic(t, "shards", merged, want)
		assertSameAsMonolithic(t, "shards over the wire", mergedShards(t, shards, queries, true), want)
	}
}

// TestPreCancelledSameShape: a context cancelled before the search starts
// must come back the same way through every entry point — no query complete,
// no hits, a QueryErrs entry of the same type per query, and a batch error
// that is context.Canceled.
func TestPreCancelledSameShape(t *testing.T) {
	_, st, base, b1, b2 := storeFixture(t)
	tiered, err := st.Database()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewDatabase(concat(base, b1, b2), storeParams())
	if err != nil {
		t.Fatal(err)
	}
	shards, err := plain.Shards(2)
	if err != nil {
		t.Fatal(err)
	}
	queries := storeQueries(base, b1, b2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	got := map[string]*BatchResult{}
	if got["plain"], err = plain.SearchBatchCtx(ctx, queries); err != nil {
		t.Fatal(err)
	}
	if got["tiered"], err = tiered.SearchBatchCtx(ctx, queries); err != nil {
		t.Fatal(err)
	}
	parts := make([]*ShardResult, len(shards))
	for s, sd := range shards {
		if parts[s], err = sd.SearchShardBatchCtx(ctx, queries, s, len(shards)); err != nil {
			t.Fatal(err)
		}
	}
	if got["shards"], err = MergeShards(queries, parts); err != nil {
		t.Fatal(err)
	}
	tieredPart, err := tiered.SearchShardBatchCtx(ctx, queries, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got["tiered shard over the wire"], err = MergeShards(queries, []*ShardResult{roundTrip(t, tieredPart, queries)}); err != nil {
		t.Fatal(err)
	}

	want := got["plain"]
	for label, br := range got {
		if label != "tiered shard over the wire" && !errors.Is(br.Err, context.Canceled) {
			t.Errorf("%s: batch error %v, want context.Canceled", label, br.Err)
		}
		if br.Err == nil || !strings.Contains(br.Err.Error(), context.Canceled.Error()) {
			t.Errorf("%s: batch error %v does not say the context was cancelled", label, br.Err)
		}
		if br.CompletedCount() != 0 || countHits(br) != 0 {
			t.Errorf("%s: %d queries complete with %d hits under a cancelled context", label, br.CompletedCount(), countHits(br))
		}
		if len(br.QueryErrs) != len(queries) {
			t.Fatalf("%s: %d query errors for %d queries", label, len(br.QueryErrs), len(queries))
		}
		for qi := range queries {
			if br.QueryErrs[qi] == nil {
				t.Errorf("%s query %d: incomplete without a reason", label, qi)
				continue
			}
			if label == "tiered shard over the wire" {
				// Errors cross the wire as text.
				if br.QueryErrs[qi].Error() != want.QueryErrs[qi].Error() {
					t.Errorf("%s query %d: error %q, plain %q", label, qi, br.QueryErrs[qi], want.QueryErrs[qi])
				}
			} else if reflect.TypeOf(br.QueryErrs[qi]) != reflect.TypeOf(want.QueryErrs[qi]) {
				t.Errorf("%s query %d: error type %T, plain %T", label, qi, br.QueryErrs[qi], want.QueryErrs[qi])
			}
			if br.Results[qi].QueryLen != len(queries[qi]) {
				t.Errorf("%s query %d: placeholder QueryLen %d, want %d", label, qi, br.Results[qi].QueryLen, len(queries[qi]))
			}
		}
	}
}

// TestSinglePartStoreIsAPlainLoad: a store with no deltas outstanding, opened
// through Store.Database, is the base container loaded with LoadFile — one
// part, identity map, nothing tiered about it — apart from the manifest
// provenance it reports.
func TestSinglePartStoreIsAPlainLoad(t *testing.T) {
	base := storeSeqs(50, 61, "base")
	base = append(base, Sequence{Name: "baselong", Residues: strings.Repeat(base[0].Residues, 3)})
	dir := t.TempDir()
	st, err := InitStore(dir, base, storeParams())
	if err != nil {
		t.Fatal(err)
	}
	fromStore, err := st.Database()
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "base-*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("base container: %v, %v", files, err)
	}
	loaded, err := LoadFile(files[0], storeParams())
	if err != nil {
		t.Fatal(err)
	}

	if fromStore.Tiered() || len(fromStore.parts) != 1 || fromStore.parts[0].idMap != nil {
		t.Fatalf("store without deltas: tiered=%v parts=%d idMap=%v, want one identity part",
			fromStore.Tiered(), len(fromStore.parts), fromStore.parts[0].idMap != nil)
	}
	if seq, hash, deltas := fromStore.Manifest(); seq != 1 || hash == "" || deltas != 0 {
		t.Fatalf("Manifest() = (%d, %q, %d), want (1, non-empty, 0)", seq, hash, deltas)
	}
	if fromStore.params != loaded.params {
		t.Fatalf("params differ:\n store %+v\n load  %+v", fromStore.params, loaded.params)
	}
	if a, b := fromStore.Fingerprint(), loaded.Fingerprint(); a != b {
		t.Fatalf("fingerprints differ: %+v vs %+v", a, b)
	}
	gr, gs := fromStore.GlobalSearchSpace()
	lr, ls := loaded.GlobalSearchSpace()
	if fromStore.NumSequences() != loaded.NumSequences() || fromStore.TotalResidues() != loaded.TotalResidues() ||
		fromStore.NumBlocks() != loaded.NumBlocks() || fromStore.IndexSizeBytes() != loaded.IndexSizeBytes() || gr != lr || gs != ls {
		t.Fatal("accessors differ between the store view and the plain load")
	}
	queries := []string{queryFrom(base, 150), base[len(base)-1].Residues[100:300]}
	want := searchCtx(t, loaded, queries)
	if countHits(want) == 0 {
		t.Fatal("plain load found nothing; the comparison would be vacuous")
	}
	assertSameAsMonolithic(t, "store view", searchCtx(t, fromStore, queries), want)
	assertSameAsMonolithic(t, "store view as a shard", mergedShards(t, []*Database{fromStore}, queries, true), want)
	for _, h := range want.Results[0].Hits {
		if fromStore.SubjectResidues(h.Subject) != loaded.SubjectResidues(h.Subject) {
			t.Fatalf("SubjectResidues(%d) differs", h.Subject)
		}
	}
	// It saves and shards like any single container (a tiered view refuses).
	var a, b strings.Builder
	if err := fromStore.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("saved bytes differ between the store view and the plain load")
	}
	if raw, err := os.ReadFile(files[0]); err != nil || string(raw) != a.String() {
		t.Fatalf("saved bytes differ from the container on disk (read error %v)", err)
	}
	if _, err := fromStore.Shards(2); err != nil {
		t.Fatalf("sharding the store view: %v", err)
	}
}
