package blast

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/alphabet"
	"repro/internal/seqgen"
)

func shardQueries(seqs []Sequence) []string {
	return []string{
		queryFrom(seqs, 150),
		queryFrom(seqs, 120),
		seqs[10].Residues,
		seqs[len(seqs)-1].Residues,
		"MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQVKVKALPDAQ",
	}
}

// TestShardMergeMatchesMonolithic is the merge invariant, end to end: for
// every shard count, searching each shard independently and merging must be
// byte-identical to searching the monolithic database — same hits with the
// same subject ids, scores, E-values, coordinates, and order, down to the
// rendered tabular output.
func TestShardMergeMatchesMonolithic(t *testing.T) {
	db, seqs := testDatabase(t)
	queries := shardQueries(seqs)
	mono, err := db.SearchBatchCtx(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if countHits(mono) == 0 {
		t.Fatal("monolithic search found nothing; the equivalence check would be vacuous")
	}

	for _, n := range []int{1, 2, 3, 5} {
		shards, err := db.Shards(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		assertSameAsMonolithic(t, fmt.Sprintf("n=%d", n), mergedShards(t, shards, queries, false), mono)
	}
}

// TestShardEngineCarriesGlobalStatistics pins the E-value invariant from two
// sides: every shard engine must carry the whole database's search-space
// totals, and the same sequences indexed as a standalone database (local
// statistics — the bug this guards against) must produce *different*
// E-values, proving the override is what keeps shards byte-identical.
func TestShardEngineCarriesGlobalStatistics(t *testing.T) {
	db, seqs := testDatabase(t)
	const n = 3
	shards, err := db.Shards(n)
	if err != nil {
		t.Fatal(err)
	}
	for s, sd := range shards {
		res, nseq := sd.GlobalSearchSpace()
		if res != db.TotalResidues() || nseq != int64(db.NumSequences()) {
			t.Fatalf("shard %d: global space %d residues/%d seqs, want %d/%d",
				s, res, nseq, db.TotalResidues(), db.NumSequences())
		}
		if sd.cfg.DBLenOverride != db.TotalResidues() || sd.cfg.DBSeqsOverride != int64(db.NumSequences()) {
			t.Fatalf("shard %d: engine overrides %d/%d, want %d/%d",
				s, sd.cfg.DBLenOverride, sd.cfg.DBSeqsOverride, db.TotalResidues(), db.NumSequences())
		}
	}

	// Find a shard where a query hits, then rebuild that shard's sequences
	// as an independent database: without the global override its E-values
	// must drift (smaller search space => smaller E-values).
	q := queryFrom(seqs, 150)
	for s, sd := range shards {
		part, err := sd.SearchShardBatchCtx(context.Background(), []string{q}, s, n)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]*ShardResult, n)
		parts[s] = part
		for o := range parts {
			if parts[o] == nil {
				other, err := shards[o].SearchShardBatchCtx(context.Background(), []string{q}, o, n)
				if err != nil {
					t.Fatal(err)
				}
				parts[o] = other
			}
		}
		merged, err := MergeShards([]string{q}, parts)
		if err != nil {
			t.Fatal(err)
		}
		if len(merged.Results[0].Hits) == 0 {
			continue
		}
		top := merged.Results[0].Hits[0]
		owner := shards[top.Subject%n]
		local := make([]Sequence, owner.parts[0].db.NumSeqs())
		for i := range owner.parts[0].db.Seqs {
			local[i] = Sequence{Name: owner.parts[0].db.Seqs[i].Name, Residues: alphabet.String(owner.parts[0].db.Seqs[i].Data)}
		}
		p := owner.params
		p.GlobalDBResidues, p.GlobalDBSequences = 0, 0
		localDB, err := NewDatabase(local, p)
		if err != nil {
			t.Fatal(err)
		}
		localRes, err := localDB.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, lh := range localRes.Hits {
			if lh.SubjectName == top.SubjectName && lh.Score == top.Score {
				if lh.EValue == top.EValue {
					t.Fatalf("local-statistics E-value %g equals global %g: the override is not doing anything",
						lh.EValue, top.EValue)
				}
				if lh.EValue > top.EValue {
					t.Fatalf("local-statistics E-value %g > global %g: smaller search space must not inflate E-values",
						lh.EValue, top.EValue)
				}
				return
			}
		}
		t.Fatalf("top hit %s not found in local-statistics search", top.SubjectName)
	}
	t.Fatal("no shard produced a hit for the probe query")
}

// TestMergeShardsSchedSideBySide pins the merged scheduler summary of shards
// that ran next to each other: their worker pools add up (each shard's busy
// time was spent on its own workers, inside its own elapsed time), so the
// merged utilization stays in its documented range instead of approaching
// the shard count.
func TestMergeShardsSchedSideBySide(t *testing.T) {
	db, seqs := testDatabase(t)
	queries := shardQueries(seqs) // >= 5 tasks per shard: every worker gets work
	for _, n := range []int{2, 3} {
		shards, err := db.Shards(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		parts := make([]*ShardResult, n)
		workers := 0
		for s, sd := range shards {
			if parts[s], err = sd.SearchShardBatchCtx(context.Background(), queries, s, n); err != nil {
				t.Fatalf("n=%d shard %d: %v", n, s, err)
			}
			if u := parts[s].sched.Utilization(); u <= 0 || u > 1 {
				t.Fatalf("n=%d shard %d: utilization %.3f outside (0, 1]", n, s, u)
			}
			workers += parts[s].sched.Workers
		}
		merged, err := MergeShards(queries, parts)
		if err != nil {
			t.Fatal(err)
		}
		if merged.Sched.Workers != workers {
			t.Errorf("n=%d: merged Workers = %d, want the shards' sum %d", n, merged.Sched.Workers, workers)
		}
		if u := merged.Sched.Utilization(); u <= 0 || u > 1 {
			t.Errorf("n=%d: merged utilization %.3f outside (0, 1]", n, u)
		}
	}
}

// TestMergeShardsMissingShard pins the honesty contract: a missing shard
// poisons every query (incomplete, ErrShardUnavailable) instead of merging
// as a silent zero-hit shard.
func TestMergeShardsMissingShard(t *testing.T) {
	db, seqs := testDatabase(t)
	queries := shardQueries(seqs)[:2]
	const n = 3
	shards, err := db.Shards(n)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*ShardResult, n)
	for s, sd := range shards {
		if s == 1 {
			continue // shard 1 "shed"
		}
		if parts[s], err = sd.SearchShardBatchCtx(context.Background(), queries, s, n); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeShards(queries, parts)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Err == nil || !strings.Contains(merged.Err.Error(), "shard 1") {
		t.Fatalf("batch error %v does not name the missing shard", merged.Err)
	}
	for qi := range queries {
		if merged.Completed[qi] {
			t.Fatalf("query %d completed despite a missing shard", qi)
		}
		if merged.QueryErrs[qi] != ErrShardUnavailable {
			t.Fatalf("query %d error %v, want ErrShardUnavailable", qi, merged.QueryErrs[qi])
		}
		if len(merged.Results[qi].Hits) != 0 {
			t.Fatalf("query %d reports %d hits despite being incomplete", qi, len(merged.Results[qi].Hits))
		}
	}

	if _, err := MergeShards(queries, make([]*ShardResult, n)); err == nil {
		t.Fatal("merging all-missing shards must fail")
	}
}

// TestShardValidation covers the constructor guards: shard counts, shard
// identity and hit-cap checks in the merge, and the both-or-neither rule for
// the global search-space parameters.
func TestShardValidation(t *testing.T) {
	db, seqs := testDatabase(t)
	if _, err := db.Shards(0); err == nil {
		t.Error("Shards(0) must fail")
	}
	if _, err := db.Shards(db.NumSequences() + 1); err == nil {
		t.Error("more shards than sequences must fail")
	}

	p := DefaultParams()
	p.GlobalDBResidues = 1000 // without GlobalDBSequences
	if _, err := NewDatabase([]Sequence{{Name: "a", Residues: seqs[0].Residues}}, p); err == nil {
		t.Error("GlobalDBResidues without GlobalDBSequences must fail")
	}

	shards, err := db.Shards(2)
	if err != nil {
		t.Fatal(err)
	}
	q := []string{seqs[0].Residues}
	p0, err := shards[0].SearchShardBatchCtx(context.Background(), q, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(q, []*ShardResult{nil, p0}); err == nil {
		t.Error("shard result at the wrong position must fail the merge")
	}
	// Shard 1 served with another -max-hits: no monolithic search caps at
	// two values, so the merge refuses the pair.
	other := shards[1].params
	other.MaxResults = 10
	sh1, err := Load(bytes.NewReader(saved(t, shards[1])), other)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := sh1.SearchShardBatchCtx(context.Background(), q, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(q, []*ShardResult{p0, p1}); err == nil || !strings.Contains(err.Error(), "10 hits per query") {
		t.Errorf("merge of shards searched with different MaxResults: err %v, want a refusal naming them", err)
	}
	if _, err := shards[0].SearchShardBatchCtx(context.Background(), q, 2, 2); err == nil {
		t.Error("shard index out of range must fail")
	}
}

// TestShardResultOutlivesItsDatabase pins that a shard result is
// self-contained: searched the way a shard daemon's /shard/search does in
// process (Session.Acquire, SearchShardBatchCtx, release), it keeps nothing
// of its generation reachable — after a Reload to a different database the
// displaced shard databases are collected, and the merge still produces the
// bytes the monolithic search produced before the reload.
func TestShardResultOutlivesItsDatabase(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 58)
	p := DefaultParams()
	p.Threads = 1
	build := func(n int, prefix string) (*Database, []Sequence) {
		seqs := make([]Sequence, n)
		for i, s := range g.Database(n) {
			seqs[i] = Sequence{Name: prefix + string(rune('A'+i/26)) + string(rune('a'+i%26)), Residues: alphabet.String(s)}
		}
		pb := p
		pb.BlockResidues = 16384
		db, err := NewDatabase(seqs, pb)
		if err != nil {
			t.Fatal(err)
		}
		return db, seqs
	}
	other, _ := build(30, "other")
	otherPath := filepath.Join(t.TempDir(), "other.mublastp")
	if err := other.SaveFile(otherPath); err != nil {
		t.Fatal(err)
	}

	const n = 2
	collected := make(chan struct{}, n)
	// searchAll builds the database, its shards and their sessions, and
	// returns only what must survive: the queries, the monolithic answer, the
	// sessions and the shard results. The databases themselves are left to
	// the sessions alone.
	searchAll := func() ([]string, []string, []*Session, []*ShardResult) {
		db, seqs := build(80, "sub")
		queries := []string{seqs[5].Residues, seqs[40].Residues[2 : len(seqs[40].Residues)-2]}
		mono, err := db.SearchBatchCtx(context.Background(), queries)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(queries))
		hits := 0
		for qi, r := range mono.Results {
			want[qi] = r.Tabular("q")
			hits += len(r.Hits)
		}
		if hits == 0 {
			t.Fatal("monolithic search found nothing; the check would be vacuous")
		}
		shards, err := db.Shards(n)
		if err != nil {
			t.Fatal(err)
		}
		sessions := make([]*Session, n)
		parts := make([]*ShardResult, n)
		for s, sd := range shards {
			runtime.SetFinalizer(sd, func(*Database) { collected <- struct{}{} })
			sessions[s] = NewSession(sd, p)
			sdb, _, release := sessions[s].Acquire()
			parts[s], err = sdb.SearchShardBatchCtx(context.Background(), queries, s, n)
			release()
			if err != nil {
				t.Fatal(err)
			}
		}
		return queries, want, sessions, parts
	}
	queries, want, sessions, parts := searchAll()

	for s, ses := range sessions {
		if err := ses.Reload(otherPath); err != nil {
			t.Fatal(err)
		}
		if ses.Generation() != 2 || ses.DB().NumSequences() != other.NumSequences() {
			t.Fatalf("shard %d: reload did not install the other database", s)
		}
		if refs := ses.Refs(); refs != 1 {
			t.Fatalf("shard %d: %d references on the current generation before the merge, want 1", s, refs)
		}
	}
	// The displaced shard databases are garbage now, results notwithstanding.
	deadline := time.After(10 * time.Second)
	for got := 0; got < n; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-deadline:
			t.Fatalf("%d of %d displaced shard databases were never collected: something still holds them", got, n)
		case <-time.After(10 * time.Millisecond):
		}
	}

	merged, err := MergeShards(queries, parts)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		if !merged.Completed[qi] {
			t.Fatalf("query %d incomplete after the reload: %v", qi, merged.QueryErrs[qi])
		}
		if got := merged.Results[qi].Tabular("q"); got != want[qi] {
			t.Fatalf("query %d: merge after the reload differs from the pre-reload monolithic search:\n got:\n%s\n want:\n%s", qi, got, want[qi])
		}
	}
}

// FuzzShardEquivalence drives the merge invariant with fuzzed queries and
// shard counts: any valid query, any N, merged output must equal the
// monolithic search exactly.
func FuzzShardEquivalence(f *testing.F) {
	g := seqgen.New(seqgen.UniprotProfile(), 17)
	raw := g.Database(40)
	seqs := make([]Sequence, len(raw))
	for i, s := range raw {
		seqs[i] = Sequence{Name: nameFor(i), Residues: alphabet.String(s)}
	}
	p := DefaultParams()
	p.BlockResidues = 16384
	db, err := NewDatabase(seqs, p)
	if err != nil {
		f.Fatal(err)
	}
	// Shard sets are deterministic in the database alone, so build each N
	// once; the fuzz loop only varies the query.
	shardSets := make(map[int][]*Database)
	for n := 1; n <= 5; n++ {
		shards, err := db.Shards(n)
		if err != nil {
			f.Fatal(err)
		}
		shardSets[n] = shards
	}
	f.Add(uint8(2), []byte(seqs[3].Residues))
	f.Add(uint8(3), []byte("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"))
	f.Add(uint8(5), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	const letters = "ACDEFGHIKLMNPQRSTVWY"
	f.Fuzz(func(t *testing.T, nRaw uint8, qRaw []byte) {
		if len(qRaw) < 8 {
			return
		}
		if len(qRaw) > 400 {
			qRaw = qRaw[:400]
		}
		n := 1 + int(nRaw)%5
		q := make([]byte, len(qRaw))
		for i, b := range qRaw {
			q[i] = letters[int(b)%len(letters)]
		}
		queries := []string{string(q)}
		assertSameAsMonolithic(t, fmt.Sprintf("n=%d", n), mergedShards(t, shardSets[n], queries, false), searchCtx(t, db, queries))
	})
}
