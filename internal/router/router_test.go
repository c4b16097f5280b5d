package router

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/blast"
	"repro/internal/alphabet"
	"repro/internal/obs"
	"repro/internal/seqgen"
)

var (
	fixOnce    sync.Once
	fixDB      *blast.Database
	fixShards  []*blast.Database // 3 shards of fixDB
	fixQueries []string
)

func fixture(t *testing.T) (*blast.Database, []*blast.Database, []string) {
	t.Helper()
	fixOnce.Do(func() {
		g := seqgen.New(seqgen.UniprotProfile(), 44)
		raw := g.Database(90)
		seqs := make([]blast.Sequence, len(raw))
		for i, s := range raw {
			seqs[i] = blast.Sequence{Name: "sub" + string(rune('A'+i/26)) + string(rune('a'+i%26)), Residues: alphabet.String(s)}
		}
		p := blast.DefaultParams()
		p.BlockResidues = 16384
		p.Threads = 1
		db, err := blast.NewDatabase(seqs, p)
		if err != nil {
			panic(err)
		}
		shards, err := db.Shards(3)
		if err != nil {
			panic(err)
		}
		fixDB, fixShards = db, shards
		fixQueries = []string{
			seqs[5].Residues,
			seqs[40].Residues[2 : len(seqs[40].Residues)-2],
		}
	})
	return fixDB, fixShards, fixQueries
}

func localWorkers(shards []*blast.Database, concurrency int) [][]Worker {
	p := blast.DefaultParams()
	out := make([][]Worker, len(shards))
	for s, sd := range shards {
		w := NewLocalWorker("s"+string(rune('0'+s)), blast.NewSession(sd, p), concurrency, 1, 0)
		out[s] = []Worker{w}
	}
	return out
}

// stubWorker lets tests script a replica's behaviour.
type stubWorker struct {
	name     string
	inflight int64
	weight   float64
	search   func(ctx context.Context, queries []string, shard, numShards int) (*blast.ShardResult, error)
}

func (w *stubWorker) Name() string    { return w.name }
func (w *stubWorker) Inflight() int64 { return w.inflight }
func (w *stubWorker) Weight() float64 {
	if w.weight == 0 {
		return 1
	}
	return w.weight
}
func (w *stubWorker) Search(ctx context.Context, queries []string, shard, numShards int) (*blast.ShardResult, error) {
	return w.search(ctx, queries, shard, numShards)
}

// delegate builds a stub that searches a real shard database.
func delegate(name string, sd *blast.Database) *stubWorker {
	return &stubWorker{name: name, search: func(ctx context.Context, queries []string, shard, numShards int) (*blast.ShardResult, error) {
		return sd.SearchShardBatchCtx(ctx, queries, shard, numShards)
	}}
}

// TestRouterMatchesMonolithic: the full scatter-gather path, all shards
// healthy, must reproduce the monolithic search byte for byte.
func TestRouterMatchesMonolithic(t *testing.T) {
	db, shards, queries := fixture(t)
	mono, err := db.SearchBatchCtx(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(localWorkers(shards, 2), Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range append(PolicyNames(), "") {
		br, rep, err := rt.Search(context.Background(), queries, policy)
		if err != nil {
			t.Fatalf("policy %q: %v", policy, err)
		}
		if rep.Sheds() != 0 || rep.Failed() != 0 {
			t.Fatalf("policy %q: unexpected sheds/failures: %+v", policy, rep.Shards)
		}
		for qi := range queries {
			if !br.Completed[qi] {
				t.Fatalf("policy %q: query %d incomplete", policy, qi)
			}
			if g, w := br.Results[qi].Tabular("q"), mono.Results[qi].Tabular("q"); g != w {
				t.Fatalf("policy %q query %d: routed output differs from monolithic:\n got:\n%s\n want:\n%s", policy, qi, g, w)
			}
		}
	}
	if _, _, err := rt.Search(context.Background(), queries, "no-such-policy"); err == nil {
		t.Fatal("unknown policy must fail")
	}
}

// TestRouterShedIsPartialNotEmpty pins satellite bug 3: a shard answering
// with backpressure must surface as an honest partial result — queries
// incomplete, Retry-After carried — never as a merged zero-hit shard.
func TestRouterShedIsPartialNotEmpty(t *testing.T) {
	_, shards, queries := fixture(t)
	busy := &stubWorker{name: "busy", search: func(context.Context, []string, int, int) (*blast.ShardResult, error) {
		return nil, &BusyError{Worker: "busy", RetryAfter: 7 * 1e9}
	}}
	workers := [][]Worker{
		{delegate("s0", shards[0])},
		{busy},
		{delegate("s2", shards[2])},
	}
	rt, err := New(workers, Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	br, rep, err := rt.Search(context.Background(), queries, "")
	if err != nil {
		t.Fatalf("one shed shard must still produce a partial result, got %v", err)
	}
	if rep.Sheds() != 1 || rep.Failed() != 0 {
		t.Fatalf("report: %d sheds, %d failed; want 1, 0", rep.Sheds(), rep.Failed())
	}
	if rep.RetryAfter.Seconds() != 7 {
		t.Fatalf("RetryAfter %v not forwarded from the shed", rep.RetryAfter)
	}
	if br.Err == nil || !errors.Is(br.Err, blast.ErrShardUnavailable) {
		t.Fatalf("batch error %v must carry ErrShardUnavailable", br.Err)
	}
	for qi := range queries {
		if br.Completed[qi] {
			t.Fatalf("query %d completed despite a shed shard", qi)
		}
		if len(br.Results[qi].Hits) != 0 {
			t.Fatalf("query %d reports hits from an incomplete merge", qi)
		}
	}
}

// TestRouterAllShed: every shard shedding refuses the request outright with
// the aggregated retry hint — the scatter-path analogue of the monolithic
// daemon's queue-full 429.
func TestRouterAllShed(t *testing.T) {
	_, _, queries := fixture(t)
	mk := func(name string, after time.Duration) Worker {
		return &stubWorker{name: name, search: func(context.Context, []string, int, int) (*blast.ShardResult, error) {
			return nil, &BusyError{Worker: name, RetryAfter: after}
		}}
	}
	rt, err := New([][]Worker{{mk("a", 1e9)}, {mk("b", 3e9)}}, Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := rt.Search(context.Background(), queries, "")
	if !errors.Is(err, ErrAllShardsUnavailable) {
		t.Fatalf("err %v, want ErrAllShardsUnavailable", err)
	}
	if rep.Sheds() != 2 || rep.Failed() != 0 {
		t.Fatalf("report: %d sheds, %d failed; want 2, 0", rep.Sheds(), rep.Failed())
	}
	if rep.RetryAfter.Seconds() != 3 {
		t.Fatalf("aggregated RetryAfter %v, want the maximum hint 3s", rep.RetryAfter)
	}
}

// TestRouterShardFailure: a non-shed shard error is a failure, not a shed,
// and still yields an honest partial result.
func TestRouterShardFailure(t *testing.T) {
	_, shards, queries := fixture(t)
	boom := &stubWorker{name: "boom", search: func(context.Context, []string, int, int) (*blast.ShardResult, error) {
		return nil, errors.New("disk on fire")
	}}
	rt, err := New([][]Worker{{delegate("s0", shards[0])}, {boom}, {delegate("s2", shards[2])}},
		Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	br, rep, err := rt.Search(context.Background(), queries, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sheds() != 0 || rep.Failed() != 1 {
		t.Fatalf("report: %d sheds, %d failed; want 0, 1", rep.Sheds(), rep.Failed())
	}
	for qi := range queries {
		if br.Completed[qi] {
			t.Fatalf("query %d completed despite a failed shard", qi)
		}
	}
	if !strings.Contains(rep.Shards[1].Err.Error(), "disk on fire") {
		t.Fatalf("shard status lost the failure: %v", rep.Shards[1].Err)
	}
}

// TestLocalWorkerSheds: the bounded token budget refuses excess load with a
// BusyError instead of queueing.
func TestLocalWorkerSheds(t *testing.T) {
	_, shards, queries := fixture(t)
	w := NewLocalWorker("w", blast.NewSession(shards[0], blast.DefaultParams()), 1, 1, 0)
	gate := make(chan struct{})
	done := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		close(gate)
		_, err := w.Search(ctx, queries, 0, 3)
		done <- err
	}()
	<-gate
	// Saturate: keep poking until the goroutine holds the single token, then
	// the next call must shed.
	var busy *BusyError
	for {
		_, err := w.Search(context.Background(), queries[:1], 0, 3)
		if errors.As(err, &busy) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return // first search finished before we ever collided; nothing left to race
		default:
		}
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("BusyError without a retry hint: %+v", busy)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestPolicies(t *testing.T) {
	mk := func(inflight int64, weight float64) Worker {
		return &stubWorker{name: "w", inflight: inflight, weight: weight}
	}
	t.Run("round-robin cycles per shard", func(t *testing.T) {
		p, err := NewPolicy(PolicyRoundRobin, 2)
		if err != nil {
			t.Fatal(err)
		}
		reps := []Worker{mk(0, 1), mk(0, 1), mk(0, 1)}
		var got []int
		for i := 0; i < 6; i++ {
			got = append(got, p.Pick(0, reps))
		}
		want := []int{0, 1, 2, 0, 1, 2}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("picks %v, want %v", got, want)
			}
		}
		if p.Pick(1, reps) != 0 {
			t.Fatal("shard 1's cursor must be independent of shard 0's")
		}
	})
	t.Run("least-loaded picks min inflight", func(t *testing.T) {
		p, err := NewPolicy(PolicyLeastLoad, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Pick(0, []Worker{mk(5, 1), mk(2, 1), mk(9, 1)}); got != 1 {
			t.Fatalf("picked %d, want 1", got)
		}
	})
	t.Run("weighted normalizes by capacity", func(t *testing.T) {
		p, err := NewPolicy(PolicyWeighted, 1)
		if err != nil {
			t.Fatal(err)
		}
		// 4 inflight at weight 4 (load 1) beats 2 inflight at weight 1 (load 2).
		if got := p.Pick(0, []Worker{mk(2, 1), mk(4, 4)}); got != 1 {
			t.Fatalf("picked %d, want the heavier replica", got)
		}
	})
	if _, err := NewPolicy("bogus", 1); err == nil {
		t.Fatal("unknown policy name must fail")
	}
}

// TestLocalWorkerResultOutlivesItsDatabase pins that a LocalWorker's result
// is self-contained: once Search has returned, the session pin is released,
// and after a Reload to a different database nothing in the result keeps the
// displaced generation reachable — yet the merge still produces the bytes
// the monolithic search produced before the reload.
func TestLocalWorkerResultOutlivesItsDatabase(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 58)
	p := blast.DefaultParams()
	p.Threads = 1
	build := func(n int, prefix string) (*blast.Database, []blast.Sequence) {
		seqs := make([]blast.Sequence, n)
		for i, s := range g.Database(n) {
			seqs[i] = blast.Sequence{Name: prefix + string(rune('A'+i/26)) + string(rune('a'+i%26)), Residues: alphabet.String(s)}
		}
		pb := p
		pb.BlockResidues = 16384
		db, err := blast.NewDatabase(seqs, pb)
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
	// searchAll builds the database, its shards and their workers, and
	// returns only what must survive: the queries, the monolithic answer, the
	// sessions and the workers' results. The databases themselves are left
	// to the sessions alone.
	searchAll := func() ([]string, []string, []*blast.Session, []*blast.ShardResult) {
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
		sessions := make([]*blast.Session, n)
		parts := make([]*blast.ShardResult, n)
		for s, sd := range shards {
			runtime.SetFinalizer(sd, func(*blast.Database) { collected <- struct{}{} })
			sessions[s] = blast.NewSession(sd, p)
			w := NewLocalWorker("w", sessions[s], 1, 1, 0)
			if parts[s], err = w.Search(context.Background(), queries, s, n); err != nil {
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

	merged, err := blast.MergeShards(queries, parts)
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
