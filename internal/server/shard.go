package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/blast"
	"repro/internal/reqtrace"
)

// This file is the daemon's shard-worker surface: the endpoints a remote
// scatter-gather router (mublastpr with router.RemoteWorker) drives when
// this daemon serves one shard container of a sharded logical database.
//
//	GET  /shard/info     coherence handshake: fingerprint, local and global
//	                     search-space totals, result-shaping params, generation
//	POST /shard/search   one shard's part of a scattered batch, returned in
//	                     the portable ShardResultWire form (shard-local ids,
//	                     merge side records) for a byte-identical remote merge
//
// /shard/search runs through the same admission machinery as /search — the
// bounded queue, run tokens, deadline-covers-queue-wait, and degraded mode —
// so a saturated shard worker sheds with 429 + Retry-After exactly like the
// local-worker path, and the router's honesty contract (shed => incomplete,
// never silent zero hits) holds across the network hop. The one deliberate
// difference: degraded mode shrinks only the deadline, never the batch. A
// shard that silently dropped queries would desynchronize the merge; a shard
// that runs out of (shortened) deadline reports those queries incomplete and
// the merge stays honest.

// ShardSearchRequest is the /shard/search request body. Queries carry raw
// residues only (names are router-side state); Shard/NumShards assert which
// slice of the logical database the caller believes this daemon serves.
type ShardSearchRequest struct {
	Queries   []string `json:"queries"`
	Shard     int      `json:"shard"`
	NumShards int      `json:"num_shards"`
	// TimeoutMS requests a per-request deadline in milliseconds; 0 means the
	// server default. The router sets this to its remaining deadline budget
	// minus a network margin.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ShardSearchResponse is the /shard/search response body.
type ShardSearchResponse struct {
	Degraded   bool                   `json:"degraded"`
	Generation int64                  `json:"db_generation"`
	Result     *blast.ShardResultWire `json:"result"`
}

// ShardInfoResponse is the /shard/info handshake: everything a router must
// cross-check before trusting this daemon with a shard's scatter traffic.
type ShardInfoResponse struct {
	Fingerprint     blast.Fingerprint `json:"fingerprint"`
	RulesVersion    int               `json:"rules_version"`
	Sequences       int               `json:"sequences"`
	TotalResidues   int64             `json:"total_residues"`
	GlobalSequences int64             `json:"global_sequences"`
	GlobalResidues  int64             `json:"global_residues"`
	EValueCutoff    float64           `json:"evalue_cutoff"`
	MaxResults      int               `json:"max_results"`
	Generation      int64             `json:"db_generation"`
	Draining        bool              `json:"draining"`
	// Ingest-store provenance (zero when serving a plain container).
	// Replicas of one shard must agree on seq+hash: a mixed-manifest
	// topology would merge results computed against different sequence
	// sets, so the router's handshake and the rolling delta propagation
	// both refuse it.
	ManifestSeq  int64  `json:"manifest_seq,omitempty"`
	ManifestHash string `json:"manifest_hash,omitempty"`
	Deltas       int    `json:"deltas,omitempty"`
}

func (s *Server) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	db, gen, release := s.ses.Acquire()
	defer release()
	globalRes, globalSeqs := db.GlobalSearchSpace()
	evalue, maxResults := db.SearchSettings()
	manSeq, manHash, deltas := db.Manifest()
	WriteJSON(w, http.StatusOK, ShardInfoResponse{
		Fingerprint:     db.Fingerprint(),
		RulesVersion:    blast.RulesVersion,
		Sequences:       db.NumSequences(),
		TotalResidues:   db.TotalResidues(),
		GlobalSequences: globalSeqs,
		GlobalResidues:  globalRes,
		EValueCutoff:    evalue,
		MaxResults:      maxResults,
		Generation:      gen,
		Draining:        s.Draining(),
		ManifestSeq:     manSeq,
		ManifestHash:    manHash,
		Deltas:          deltas,
	})
}

// batch is the /shard/search request's query batch: bare residues, with the
// slice assertion as its own validity condition.
func (req *ShardSearchRequest) batch() Batch {
	b := Batch{Residues: req.Queries, Timeout: time.Duration(req.TimeoutMS) * time.Millisecond}
	if req.NumShards <= 0 || req.Shard < 0 || req.Shard >= req.NumShards {
		b.invalid = fmt.Sprintf("shard %d of %d out of range", req.Shard, req.NumShards)
	}
	return b
}

func (s *Server) handleShardSearch(w http.ResponseWriter, r *http.Request) {
	var req ShardSearchRequest
	a, ok := s.admit(w, r, "shard request", &req)
	if !ok {
		return
	}
	defer a.done()
	sc := a.sc

	db, gen, release := s.ses.Acquire()
	searchStart := time.Now()
	searchSpan := sc.Root.Child("search", searchStart.UnixNano())
	searchSpan.SetAttr("shard", strconv.Itoa(req.Shard))
	part, err := db.SearchShardBatchCtx(reqtrace.ContextWithSpan(a.ctx, searchSpan), req.Queries, req.Shard, req.NumShards)
	searchDur := time.Since(searchStart)
	release() // the result is self-contained: wiring it needs no database
	searchSpan.End(searchDur.Nanoseconds())
	if err != nil {
		sc.Reject(reqtrace.OutcomeRejected, http.StatusBadRequest, "shard search: %v", err)
		return
	}
	reqtrace.AttachShardQuerySpans(searchSpan, searchStart.UnixNano(), part)
	wire, err := part.Wire(req.Queries)
	if err != nil {
		sc.Reject(reqtrace.OutcomeError, http.StatusInternalServerError, "encoding shard result: %v", err)
		return
	}
	s.met.RequestNanos.Observe(int64(time.Since(a.enqueued)))

	s.respond(w, sc, "shard request", ShardSearchResponse{
		Degraded:   a.degraded,
		Generation: gen,
		Result:     wire,
	}, part.Err())
}
