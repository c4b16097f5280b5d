package blast

import (
	"context"

	"repro/internal/search"
)

// ErrDeadline is re-exported from the search layer: BatchResult.Err wraps it
// (and context.DeadlineExceeded) when a batch hit the caller's context
// deadline.
var ErrDeadline = search.ErrDeadline

// BatchResult is the outcome of a context-aware batch search. The batch as a
// whole may have been cut short (Err non-nil after cancellation or a
// deadline) or individual queries may have failed alone (a panicking task
// poisons only its query); either way every query flagged in Completed
// carries a Result byte-identical to an undisturbed run.
type BatchResult struct {
	// Results has one entry per input query. Entries whose Completed flag
	// is false are zero-valued placeholders, not partial output.
	Results []*Result
	// Completed[i] reports whether query i finished every block.
	Completed []bool
	// QueryErrs[i] is nil for completed queries; otherwise a typed reason:
	// search.TaskPanicError (with block/query attribution) for a poisoned
	// query, search.QueryCancelledError after cancellation or deadline.
	QueryErrs []error
	// Sched carries the scheduler's utilization and failure counters.
	Sched search.SchedStats
	// Err is nil when the batch ran to the end (even if some queries were
	// poisoned); it wraps ErrDeadline or context.Canceled when the batch
	// was cut short.
	Err error
}

// CompletedCount returns how many queries finished.
func (b *BatchResult) CompletedCount() int {
	n := 0
	for _, done := range b.Completed {
		if done {
			n++
		}
	}
	return n
}

// SearchBatchCtx runs a batch of queries through the muBLASTP engine under
// ctx: cancelling ctx, or its deadline, stops the batch between tasks, and a
// panicking task fails only its own query. The returned error is non-nil
// only for invalid input (a query that cannot be encoded); runtime failures
// are reported per query inside the BatchResult so partial results stay
// usable.
func (d *Database) SearchBatchCtx(ctx context.Context, queries []string) (*BatchResult, error) {
	enc, err := encodeQueries(queries)
	if err != nil {
		return nil, err
	}
	return d.searchRaw(ctx, enc).batchResult(enc), nil
}
