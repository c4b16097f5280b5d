package server

import (
	"errors"
	"net/http"

	"repro/blast"
)

// POST /ingest: crash-safe incremental ingestion into the daemon's store.
//
// The handler is deliberately narrow: it validates the batch, takes the
// single-flight ingest token (the store is single-writer; a concurrent
// ingest sheds 503 with Retry-After rather than queueing), commits the
// batch through the store's WAL protocol, optionally compacts, and
// hot-swaps the session onto the new base+deltas view via ReloadDB — the
// in-process path, because re-opening the directory would race a second
// recovery pass against the live Store. Searches in flight keep their
// pinned generation and stay byte-identical; the next request sees the new
// sequences.
//
// Status codes are honest about durability:
//
//	200 — the batch is durable (WAL-committed and manifest-visible)
//	400 — the batch can never be ingested (validation); nothing written
//	409 — this daemon has no store (immutable container); nothing written
//	413 — the batch exceeds maxIngestSeqs; nothing written
//	503 — shed (busy/draining/injected fault); nothing written
//	500 — a commit failed midway: nothing is lost (recovery restores a
//	      consistent pre- or post-commit state) but this process must be
//	      restarted to re-run recovery before ingesting again
//
// A compaction that fails without breaking the store is not a failed ingest:
// the batch is durable and served, the reply is 200 with compacted false, and
// ingest_compactions_failed counts it.

// IngestSequence is one sequence of an ingest batch.
type IngestSequence struct {
	Name     string `json:"name"`
	Residues string `json:"residues"`
}

// IngestRequest is the /ingest request body.
type IngestRequest struct {
	Sequences []IngestSequence `json:"sequences"`
	// Compact forces a compaction after the append, regardless of the
	// CompactAfter threshold.
	Compact bool `json:"compact,omitempty"`
}

// IngestResponse reports a durable ingest.
type IngestResponse struct {
	ManifestSeq  int64  `json:"manifest_seq"`
	ManifestHash string `json:"manifest_hash"`
	Deltas       int    `json:"deltas"`
	Sequences    int    `json:"sequences"`
	Compacted    bool   `json:"compacted,omitempty"`
	Generation   int64  `json:"db_generation"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	st := s.cfg.Store
	if st == nil {
		s.met.IngestsRejected.Add(1)
		WriteError(w, http.StatusConflict, "this daemon serves an immutable container; start it with an ingest store (-store) to accept writes")
		return
	}
	if s.Draining() {
		s.met.IngestsShed.Add(1)
		SetRetryAfter(w, retryAfter)
		WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req IngestRequest
	if err := decodeBody(w, r, maxBodyBytes, &req); err != nil {
		s.met.IngestsRejected.Add(1)
		WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.Sequences) == 0 {
		s.met.IngestsRejected.Add(1)
		WriteError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Sequences) > maxIngestSeqs {
		s.met.IngestsRejected.Add(1)
		WriteError(w, http.StatusRequestEntityTooLarge, "batch of %d sequences exceeds the %d cap; split it",
			len(req.Sequences), maxIngestSeqs)
		return
	}
	batch := make([]blast.Sequence, len(req.Sequences))
	for i, q := range req.Sequences {
		batch[i] = blast.Sequence{Name: q.Name, Residues: q.Residues}
	}

	// Single-flight: the slot is the backpressure signal, not a queue.
	select {
	case <-s.ingestTok:
	default:
		s.met.IngestsShed.Add(1)
		SetRetryAfter(w, retryAfter)
		WriteError(w, http.StatusServiceUnavailable, "an ingest is already in flight; retry")
		return
	}
	defer func() { s.ingestTok <- struct{}{} }()

	if err := fiIngest.Err(); err != nil {
		s.met.IngestsShed.Add(1)
		SetRetryAfter(w, retryAfter)
		WriteError(w, http.StatusServiceUnavailable, "ingest refused: %v", err)
		return
	}

	stats, err := st.Append(batch)
	if err != nil {
		// Validation failures happen before anything durable; a broken
		// store means this commit (or an earlier one) aborted midway and the
		// store handle is poisoned until recovery re-runs.
		if errors.Is(err, blast.ErrStoreBroken) {
			s.met.IngestsFailed.Add(1)
			s.Logf("ingest failed, store needs recovery: %v", err)
			WriteError(w, http.StatusInternalServerError, "ingest commit failed; restart the daemon to run recovery: %v", err)
			return
		}
		s.met.IngestsRejected.Add(1)
		WriteError(w, http.StatusBadRequest, "invalid batch: %v", err)
		return
	}

	// From here the batch is durable. A compaction that fails leaves the
	// manifest naming the base and every delta, this batch's included, so the
	// daemon swaps to that view and answers 200 either way: a 500 would hide
	// an acknowledged batch from /search and invite a retry that appends it
	// twice. Only a compaction that broke the store (its manifest commit
	// failed midway) is a 500.
	compacted := false
	var compactErr error
	if req.Compact || (s.cfg.CompactAfter > 0 && st.NumDeltas() >= s.cfg.CompactAfter) {
		if compactErr = st.Compact(); compactErr != nil {
			s.met.CompactionsFailed.Add(1)
			s.Logf("compaction failed after durable ingest: %v", compactErr)
		} else {
			compacted = true
			s.met.Compactions.Add(1)
		}
	}

	db, err := st.Database()
	if err != nil {
		s.met.IngestsFailed.Add(1)
		s.Logf("ingest committed but the new view failed to load: %v", err)
		WriteError(w, http.StatusInternalServerError, "batch is durable but loading the new view failed; restart the daemon: %v", err)
		return
	}
	if err := s.ses.ReloadDB(db); err != nil {
		s.met.IngestsFailed.Add(1)
		WriteError(w, http.StatusInternalServerError, "batch is durable but the swap failed: %v", err)
		return
	}
	s.stampServing()
	if errors.Is(compactErr, blast.ErrStoreBroken) {
		s.met.IngestsFailed.Add(1)
		WriteError(w, http.StatusInternalServerError, "batch is durable and served but compaction failed; restart the daemon to run recovery: %v", compactErr)
		return
	}
	s.met.Ingests.Add(1)
	s.met.IngestedSeqs.Add(int64(stats.Sequences))
	s.Logf("ingest: %d sequences -> manifest seq %d (%d deltas, compacted=%v)",
		stats.Sequences, st.ManifestSeq(), st.NumDeltas(), compacted)
	WriteJSON(w, http.StatusOK, IngestResponse{
		ManifestSeq:  st.ManifestSeq(),
		ManifestHash: st.ManifestHash(),
		Deltas:       st.NumDeltas(),
		Sequences:    stats.Sequences,
		Compacted:    compacted,
		Generation:   s.ses.Generation(),
	})
}
