package router

import (
	"context"
	"errors"
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

// shardWorkers serves each shard from its own shard daemon
// (startShardDaemons) and returns one replica per shard.
func shardWorkers(t *testing.T, shards []*blast.Database, traces ...*syncBuffer) [][]Worker {
	t.Helper()
	out := make([][]Worker, len(shards))
	for s, w := range startShardDaemons(t, shards, traces...) {
		out[s] = []Worker{w}
	}
	return out
}

// stubWorker lets tests script a replica's behaviour.
type stubWorker struct {
	name   string
	search func(ctx context.Context, queries []string, shard, numShards int) (*blast.ShardResult, error)
}

func (w *stubWorker) Name() string    { return w.name }
func (w *stubWorker) Inflight() int64 { return 0 }
func (w *stubWorker) Weight() float64 { return 1 }
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
// healthy, must reproduce the monolithic search byte for byte, request
// after request.
func TestRouterMatchesMonolithic(t *testing.T) {
	db, shards, queries := fixture(t)
	mono, err := db.SearchBatchCtx(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(shardWorkers(t, shards), Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		br, rep, err := rt.Search(context.Background(), queries)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if rep.Sheds() != 0 || rep.Failed() != 0 {
			t.Fatalf("request %d: unexpected sheds/failures: %+v", i, rep.Shards)
		}
		for qi := range queries {
			if !br.Completed[qi] {
				t.Fatalf("request %d: query %d incomplete", i, qi)
			}
			if g, w := br.Results[qi].Tabular("q"), mono.Results[qi].Tabular("q"); g != w {
				t.Fatalf("request %d query %d: routed output differs from monolithic:\n got:\n%s\n want:\n%s", i, qi, g, w)
			}
		}
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
	br, rep, err := rt.Search(context.Background(), queries)
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
	_, rep, err := rt.Search(context.Background(), queries)
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
	br, rep, err := rt.Search(context.Background(), queries)
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

// TestPolicies: a shard's replicas take requests round-robin, one cursor
// per shard, so shards advance independently.
func TestPolicies(t *testing.T) {
	t.Run("round-robin cycles per shard", func(t *testing.T) {
		reps := func() []Worker {
			return []Worker{&stubWorker{name: "a"}, &stubWorker{name: "b"}, &stubWorker{name: "c"}}
		}
		rt, err := New([][]Worker{reps(), reps()}, Options{Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for i := 0; i < 6; i++ {
			got = append(got, rt.pick(0, nil))
		}
		want := []int{0, 1, 2, 0, 1, 2}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("picks %v, want %v", got, want)
			}
		}
		if rt.pick(1, nil) != 0 {
			t.Fatal("shard 1's cursor must be independent of shard 0's")
		}
	})
}
