package blast

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/seqgen"
)

// roundTrip pushes an attached shard result through the wire form — real
// JSON marshal/unmarshal, the same bytes a remote worker would send — and
// rebuilds it detached.
func roundTrip(t testing.TB, part *ShardResult, queries []string) *ShardResult {
	t.Helper()
	w, err := part.Wire(queries)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var decoded ShardResultWire
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	imported, err := ImportShardResult(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	return imported
}

// TestShardWireRoundTripByteIdentical is the remote-merge invariant: merging
// detached (JSON round-tripped) shard results must be byte-identical to
// merging the attached originals — and hence to the monolithic search. Every
// mix of attached and detached parts must agree, since a fleet can pair
// in-process and remote replicas for one request.
func TestShardWireRoundTripByteIdentical(t *testing.T) {
	db, seqs := testDatabase(t)
	queries := shardQueries(seqs)
	const n = 3
	shards, err := db.Shards(n)
	if err != nil {
		t.Fatal(err)
	}
	attached := make([]*ShardResult, n)
	for s, sd := range shards {
		if attached[s], err = sd.SearchShardBatchCtx(context.Background(), queries, s, n); err != nil {
			t.Fatal(err)
		}
	}
	want, err := MergeShards(queries, attached)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for qi := range queries {
		hits += len(want.Results[qi].Hits)
	}
	if hits == 0 {
		t.Fatal("attached merge found nothing; the equivalence check would be vacuous")
	}

	// mask selects which parts go over the wire; every combination must merge
	// to the same bytes.
	for mask := 1; mask < 1<<n; mask++ {
		parts := make([]*ShardResult, n)
		for s := range parts {
			if mask&(1<<s) != 0 {
				parts[s] = roundTrip(t, attached[s], queries)
			} else {
				parts[s] = attached[s]
			}
		}
		got, err := MergeShards(queries, parts)
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		for qi := range queries {
			if got.Completed[qi] != want.Completed[qi] {
				t.Fatalf("mask %b query %d: completed=%v, attached merge %v", mask, qi, got.Completed[qi], want.Completed[qi])
			}
			g, w := got.Results[qi], want.Results[qi]
			if len(g.Hits) != len(w.Hits) {
				t.Fatalf("mask %b query %d: %d hits, attached merge %d", mask, qi, len(g.Hits), len(w.Hits))
			}
			for j := range w.Hits {
				if g.Hits[j] != w.Hits[j] {
					t.Fatalf("mask %b query %d hit %d:\n got  %+v\n want %+v", mask, qi, j, g.Hits[j], w.Hits[j])
				}
			}
			if gt, wt := g.Tabular("q"), w.Tabular("q"); gt != wt {
				t.Fatalf("mask %b query %d: rendered output differs:\n got:\n%s\n want:\n%s", mask, qi, gt, wt)
			}
		}
	}
}

// TestShardWireSplitChunkOrigins pins the side-record path the detached
// merge leans on: with long-sequence splitting active, a wire-imported shard
// result must still map chunk hits back to original-sequence coordinates and
// deduplicate overlap-region hits exactly like the attached merge.
func TestShardWireSplitChunkOrigins(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 99)
	raw := g.Database(60)
	seqs := make([]Sequence, len(raw))
	long := 0
	for i, s := range raw {
		seqs[i] = Sequence{Name: nameFor(i), Residues: alphabet.String(s)}
	}
	// Append one sequence long enough to be split so chunk origins exist.
	base := seqs[len(seqs)-1].Residues
	for len(base) < 600 {
		base += seqs[long%len(seqs)].Residues
		long++
	}
	seqs = append(seqs, Sequence{Name: "longboi", Residues: base})

	p := DefaultParams()
	p.BlockResidues = 16384
	p.SplitLongerThan = 200
	p.SplitOverlap = 50
	db, err := NewDatabase(seqs, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.parts[0].chunkOrigin) == 0 {
		t.Fatal("no split chunks; the origin check would be vacuous")
	}
	// A query from the middle of the long sequence crosses chunk overlaps.
	queries := []string{base[180:340], base[:120]}

	const n = 2
	shards, err := db.Shards(n)
	if err != nil {
		t.Fatal(err)
	}
	attached := make([]*ShardResult, n)
	detached := make([]*ShardResult, n)
	for s, sd := range shards {
		if attached[s], err = sd.SearchShardBatchCtx(context.Background(), queries, s, n); err != nil {
			t.Fatal(err)
		}
		detached[s] = roundTrip(t, attached[s], queries)
	}
	want, err := MergeShards(queries, attached)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeShards(queries, detached)
	if err != nil {
		t.Fatal(err)
	}
	sawOrigin := false
	for qi := range queries {
		g, w := got.Results[qi], want.Results[qi]
		if gt, wt := g.Tabular("q"), w.Tabular("q"); gt != wt {
			t.Fatalf("query %d: detached merge differs from attached:\n got:\n%s\n want:\n%s", qi, gt, wt)
		}
		for _, h := range w.Hits {
			if h.SubjectName == "longboi" {
				sawOrigin = true
			}
			if strings.Contains(h.SubjectName, "#") {
				t.Fatalf("query %d: chunk name %q leaked into merged output", qi, h.SubjectName)
			}
		}
	}
	if !sawOrigin {
		t.Fatal("no hit mapped back to the split sequence; the origin check would be vacuous")
	}
}

// TestShardWireCarriesIncompleteness pins honest-incompleteness over the
// wire: per-query incomplete flags and error strings survive the round trip,
// and a merged batch still reports those queries incomplete.
func TestShardWireCarriesIncompleteness(t *testing.T) {
	db, seqs := testDatabase(t)
	queries := shardQueries(seqs)[:2]
	const n = 2
	shards, err := db.Shards(n)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*ShardResult, n)
	for s, sd := range shards {
		if parts[s], err = sd.SearchShardBatchCtx(context.Background(), queries, s, n); err != nil {
			t.Fatal(err)
		}
	}
	// Forge an incomplete query on shard 1, as a deadline would leave it.
	parts[1].completed[0] = false
	parts[1].queryErrs[0] = context.DeadlineExceeded
	parts[1].results[0].HSPs = nil

	imported := roundTrip(t, parts[1], queries)
	if imported.QueryCompleted(0) {
		t.Fatal("incomplete flag lost in the wire round trip")
	}
	if imported.queryErrs[0] == nil || !strings.Contains(imported.queryErrs[0].Error(), "deadline") {
		t.Fatalf("query error %v lost its reason over the wire", imported.queryErrs[0])
	}
	parts[1] = imported
	merged, err := MergeShards(queries, parts)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Completed[0] {
		t.Fatal("merge reported a query complete although one shard did not finish it")
	}
	if len(merged.Results[0].Hits) != 0 {
		t.Fatal("incomplete query must not report partial hits")
	}
	if !merged.Completed[1] {
		t.Fatal("the untouched query must stay complete")
	}

	// Structural garbage must be rejected, not merged.
	if _, err := ImportShardResult(&ShardResultWire{Shard: 2, NumShards: 2}); err == nil {
		t.Fatal("out-of-range shard index must fail the import")
	}
	bad, err := parts[0].Wire(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad.Queries) > 0 && len(bad.Queries[1].HSPs) > 0 {
		bad.Queries[1].HSPs[0].Subject = -1
		if _, err := ImportShardResult(bad); err == nil {
			t.Fatal("negative subject id must fail the import")
		}
	}
}
