// Package router is the scatter-gather serving tier over a sharded database:
// a query batch is scattered to every shard (each shard holding one
// round-robin slice of the length-sorted database, see blast.Shards), each
// shard searches with *global* Karlin-Altschul statistics, and the per-shard
// results merge byte-identically to a monolithic search over the whole
// database. Capacity grows by adding shards or replicas instead of cores.
//
// Replica selection within a shard is a pluggable Policy (round-robin,
// least-loaded, weighted), selectable per request. Shard-level failure is
// honest by construction: a worker that sheds (backpressure) or fails makes
// the affected queries *incomplete* — with the shed's Retry-After hint
// surfaced to the client — and is never merged as if the shard had zero
// hits.
//
// The HTTP tier (Frontend) is the serving edge of internal/server — the same
// lifecycle, request scope, batch preamble and renderer as mublastpd — plus
// what only a router has: the scatter, its 429/503/partial mapping, the
// rolling reload. What makes a fleet coherent is blast.VerifyTopology's rule.
package router

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/blast"
)

// BusyError is a worker's backpressure signal: the replica is saturated and
// the caller should retry after the hint. The router maps it to a shed
// shard status (and the HTTP tier to 429/Retry-After), distinct from a
// failed shard.
type BusyError struct {
	Worker     string
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("router: worker %s saturated, retry after %v", e.Worker, e.RetryAfter)
}

// Worker is one replica of one shard: something that can search a query
// batch against its shard slice and report its load. Implementations must be
// safe for concurrent use.
type Worker interface {
	// Name identifies the replica in statuses and metrics.
	Name() string
	// Search runs the batch against this worker's copy of shard `shard` of
	// `numShards`, returning raw per-shard results for the merge. A
	// saturated worker returns *BusyError instead of queueing unboundedly.
	Search(ctx context.Context, queries []string, shard, numShards int) (*blast.ShardResult, error)
	// Inflight is the number of searches the worker is currently running
	// (the least-loaded policy's signal).
	Inflight() int64
	// Weight is the worker's relative capacity (the weighted policy's
	// signal); non-positive means 1.
	Weight() float64
}

// LocalWorker serves a shard from an in-process blast.Session with a bounded
// concurrency budget: at most `concurrency` searches run at once and there
// is no queue — excess load is refused immediately with a BusyError, so
// backpressure propagates to the router instead of hiding in an unbounded
// wait. The session can be hot-reloaded (blast.Session.Reload) while the
// worker serves.
type LocalWorker struct {
	name        string
	ses         *blast.Session
	weight      float64
	retryAfter  time.Duration
	concurrency int
	tokens      chan struct{}
	inflight    atomic.Int64
	// shedStreak counts sheds since the last admitted search; it scales the
	// Retry-After hint so sustained pressure pushes retries further out.
	shedStreak atomic.Int64
}

// NewLocalWorker wraps a session. concurrency <= 0 means 1; weight <= 0
// means 1; retryAfter <= 0 means 1s.
func NewLocalWorker(name string, ses *blast.Session, concurrency int, weight float64, retryAfter time.Duration) *LocalWorker {
	if concurrency <= 0 {
		concurrency = 1
	}
	if weight <= 0 {
		weight = 1
	}
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	return &LocalWorker{
		name: name, ses: ses, weight: weight, retryAfter: retryAfter,
		concurrency: concurrency,
		tokens:      make(chan struct{}, concurrency),
	}
}

// Name implements Worker.
func (w *LocalWorker) Name() string { return w.name }

// Inflight implements Worker.
func (w *LocalWorker) Inflight() int64 { return w.inflight.Load() }

// Weight implements Worker.
func (w *LocalWorker) Weight() float64 { return w.weight }

// Session returns the underlying session (for hot reloads and stats).
func (w *LocalWorker) Session() *blast.Session { return w.ses }

// retryAfterShedCap bounds the adaptive Retry-After hint at this multiple of
// the base: the hint must grow under sustained pressure but stay a hint, not
// an exile.
const retryAfterShedCap = 8

// RetryAfterHint is the Retry-After a shed would carry right now: the base
// hint scaled by the shed streak relative to the worker's capacity
// (1 + streak/concurrency, capped at 8x). One refused caller on a big worker
// barely moves it; a streak on a small worker pushes retries out fast, so
// the hint tracks how outmatched the capacity actually is.
func (w *LocalWorker) RetryAfterHint() time.Duration {
	mult := 1 + float64(w.shedStreak.Load())/float64(w.concurrency)
	if mult > retryAfterShedCap {
		mult = retryAfterShedCap
	}
	return time.Duration(float64(w.retryAfter) * mult)
}

// Search implements Worker: token-bounded, shedding when saturated.
func (w *LocalWorker) Search(ctx context.Context, queries []string, shard, numShards int) (*blast.ShardResult, error) {
	select {
	case w.tokens <- struct{}{}:
	default:
		w.shedStreak.Add(1)
		return nil, &BusyError{Worker: w.name, RetryAfter: w.RetryAfterHint()}
	}
	defer func() { <-w.tokens }()
	w.shedStreak.Store(0)
	w.inflight.Add(1)
	defer w.inflight.Add(-1)
	db, release := w.ses.Acquire()
	defer release()
	return db.SearchShardBatchCtx(ctx, queries, shard, numShards)
}

// ReloadContainer implements Reloader: verify-only validates the candidate
// — a container file or an ingest-store directory (manifest, every
// container, pending WAL) — without touching the serving session; otherwise
// blast.Session.Reload runs its verify-before-swap.
func (w *LocalWorker) ReloadContainer(_ context.Context, path string, verifyOnly bool) error {
	if verifyOnly {
		_, err := blast.VerifyPath(path)
		return err
	}
	return w.ses.Reload(path)
}
