package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/blast"
	"repro/internal/alphabet"
	"repro/internal/obs"
	"repro/internal/seqgen"
)

// shardFixture serves each shard of one logical database from its own
// Server, the way a remote mublastpd fleet would.
type shardFixture struct {
	params  blast.Params
	logical *blast.Database
	shards  []*blast.Database
	servers []*Server
	bases   []string
	queries []string
}

func newShardFixture(t *testing.T, n int) *shardFixture {
	t.Helper()
	p := blast.DefaultParams()
	p.BlockResidues = 16384
	g := seqgen.New(seqgen.UniprotProfile(), 77)
	raw := g.Database(60)
	seqs := make([]blast.Sequence, len(raw))
	for i, s := range raw {
		seqs[i] = blast.Sequence{Name: fmt.Sprintf("seq_%03d", i), Residues: alphabet.String(s)}
	}
	logical, err := blast.NewDatabase(seqs, p)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := logical.Shards(n)
	if err != nil {
		t.Fatal(err)
	}
	f := &shardFixture{params: p, logical: logical, shards: shards}
	for _, sd := range shards {
		srv := New(blast.NewSession(sd, p), p, Config{Registry: obs.NewRegistry()})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		f.servers = append(f.servers, srv)
		f.bases = append(f.bases, "http://"+addr)
	}
	q := seqs[3].Residues
	if len(q) > 140 {
		q = q[:140]
	}
	f.queries = []string{q, seqs[len(seqs)-1].Residues, "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"}
	return f
}

// TestShardEndpointsMergeByteIdentical drives the full remote path in-process:
// /shard/info handshake on every worker, /shard/search scatter, wire-decode,
// detached merge — and requires the merged output byte-identical to searching
// the monolithic database directly.
func TestShardEndpointsMergeByteIdentical(t *testing.T) {
	const n = 2
	f := newShardFixture(t, n)

	var fp *blast.Fingerprint
	for s, base := range f.bases {
		resp, err := http.Get(base + "/shard/info")
		if err != nil {
			t.Fatal(err)
		}
		var info ShardInfoResponse
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d: /shard/info status %d", s, resp.StatusCode)
		}
		if info.RulesVersion != blast.RulesVersion {
			t.Fatalf("shard %d: reports rules version %d, the build's is %d", s, info.RulesVersion, blast.RulesVersion)
		}
		if fp == nil {
			fp = &info.Fingerprint
		} else if info.Fingerprint != *fp {
			t.Fatalf("shard %d: fingerprint %+v differs from shard 0's %+v", s, info.Fingerprint, *fp)
		}
		if info.GlobalSequences != int64(f.logical.NumSequences()) || info.GlobalResidues != f.logical.TotalResidues() {
			t.Fatalf("shard %d: global space %d/%d, want %d/%d",
				s, info.GlobalSequences, info.GlobalResidues, f.logical.NumSequences(), f.logical.TotalResidues())
		}
		if info.Sequences != f.shards[s].NumSequences() {
			t.Fatalf("shard %d: reports %d sequences, holds %d", s, info.Sequences, f.shards[s].NumSequences())
		}
		if info.Draining {
			t.Fatalf("shard %d: draining at startup", s)
		}
	}

	parts := make([]*blast.ShardResult, n)
	for s, base := range f.bases {
		resp, data := postJSON(t, base+"/shard/search", ShardSearchRequest{
			Queries: f.queries, Shard: s, NumShards: n,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d: status %d: %s", s, resp.StatusCode, data)
		}
		var sr ShardSearchResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Result == nil {
			t.Fatalf("shard %d: response carries no result", s)
		}
		part, err := blast.ImportShardResult(sr.Result)
		if err != nil {
			t.Fatalf("shard %d: import: %v", s, err)
		}
		parts[s] = part
	}
	merged, err := blast.MergeShards(f.queries, parts)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := f.logical.SearchBatchCtx(context.Background(), f.queries)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for qi := range f.queries {
		if !merged.Completed[qi] {
			t.Fatalf("query %d incomplete on a healthy fleet", qi)
		}
		hits += len(mono.Results[qi].Hits)
		if g, w := merged.Results[qi].Tabular("q"), mono.Results[qi].Tabular("q"); g != w {
			t.Fatalf("query %d: remote merge differs from monolithic:\n got:\n%s\n want:\n%s", qi, g, w)
		}
	}
	if hits == 0 {
		t.Fatal("monolithic search found nothing; the equivalence check would be vacuous")
	}
}

// TestShardSearchValidation covers the endpoint's own guard, the slice
// assertion; the refusals it shares with /search are the edge's
// (router.TestEdgeConformance).
func TestShardSearchValidation(t *testing.T) {
	f := newShardFixture(t, 2)
	base := f.bases[0]

	for _, tc := range []struct {
		name string
		req  ShardSearchRequest
		want int
	}{
		{"shard out of range", ShardSearchRequest{Queries: f.queries, Shard: 2, NumShards: 2}, http.StatusBadRequest},
		{"negative shard", ShardSearchRequest{Queries: f.queries, Shard: -1, NumShards: 2}, http.StatusBadRequest},
		{"zero shards", ShardSearchRequest{Queries: f.queries, Shard: 0, NumShards: 0}, http.StatusBadRequest},
	} {
		resp, data := postJSON(t, base+"/shard/search", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, data)
		}
	}
}
