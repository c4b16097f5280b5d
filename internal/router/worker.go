// Package router is the scatter-gather serving tier over a sharded database:
// a query batch is scattered to every shard (each shard holding one
// round-robin slice of the length-sorted database, see blast.Shards), each
// shard searches with *global* Karlin-Altschul statistics, and the per-shard
// results merge byte-identically to a monolithic search over the whole
// database. Capacity grows by adding shards or replicas instead of cores.
//
// Every shard replica is a mublastpd shard daemon driven over HTTP
// (RemoteWorker), and the replicas of a shard take requests round-robin.
// Shard-level failure is honest by construction: a worker that sheds (backpressure) or fails makes
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
	// Inflight is the number of searches the worker is currently running.
	// The router does not read it.
	Inflight() int64
	// Weight is the worker's relative capacity; non-positive means 1. The
	// router does not read it.
	Weight() float64
}
