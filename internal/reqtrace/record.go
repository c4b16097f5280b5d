// The workload record: the flat projection of one request's trace tree that
// the replayer reads — when the request arrived, how big it was, what
// deadline it ran under and how it ended. Records have no file format of
// their own: the daemons write one log, the -trace file, and ReadRecords
// projects it.
package reqtrace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Request outcomes, shared by records and trace trees. The vocabulary
// mirrors the serving layer's honest-degradation contract: a shed is not a
// timeout is not an error.
const (
	OutcomeOK        = "ok"        // 200, all admitted work ran
	OutcomeShed      = "shed"      // 429, refused at admission (queue full / all shards shed)
	OutcomeTimeout   = "timeout"   // 503, deadline expired (queue or search)
	OutcomeCancelled = "cancelled" // client went away / drain cancelled it
	OutcomeRejected  = "rejected"  // 4xx, invalid request (never admitted)
	OutcomeError     = "error"     // 5xx, internal failure
)

// Attributes of the edge root span that carry what a record needs and no
// span measures. The serving edge stamps them; ReadRecords reads them back.
const (
	AttrStatus     = "status"      // HTTP status of the answer
	AttrQueryLens  = "query_lens"  // comma-separated residue lengths, in batch order
	AttrDeadlineMS = "deadline_ms" // effective deadline (after caps and degraded mode)
	AttrDegraded   = "degraded"    // "true" when admitted in degraded mode
)

// Record is one request's workload line.
type Record struct {
	// RequestID correlates the record with the response's X-Request-ID
	// header and daemon logs.
	RequestID string
	// ArrivalUnixNS is the absolute arrival time at the edge handler.
	// Replay uses inter-arrival deltas, so only the differences need to
	// be meaningful.
	ArrivalUnixNS int64
	// QueryLens are the residue lengths of the batch's queries, in order.
	QueryLens []int
	// DeadlineMS is the effective per-request deadline applied (after
	// server caps and degraded-mode shrinking).
	DeadlineMS int64
	// Outcome is one of the Outcome* constants; Status the HTTP status.
	Outcome string
	Status  int
	// Degraded reports the server was in degraded mode at admission.
	Degraded bool
}

// project flattens one trace tree into its record.
func project(tr *Trace) (*Record, error) {
	root := tr.Root
	if root == nil {
		return nil, fmt.Errorf("trace %s has no root span", tr.RequestID)
	}
	rec := &Record{
		RequestID:     tr.RequestID,
		ArrivalUnixNS: root.StartNS,
		Outcome:       tr.Outcome,
		Degraded:      root.Attrs[AttrDegraded] == "true",
	}
	var err error
	if s := root.Attrs[AttrStatus]; s != "" {
		if rec.Status, err = strconv.Atoi(s); err != nil {
			return nil, fmt.Errorf("%s: %w", AttrStatus, err)
		}
	}
	if s := root.Attrs[AttrDeadlineMS]; s != "" {
		if rec.DeadlineMS, err = strconv.ParseInt(s, 10, 64); err != nil {
			return nil, fmt.Errorf("%s: %w", AttrDeadlineMS, err)
		}
	}
	if s := root.Attrs[AttrQueryLens]; s != "" {
		for _, f := range strings.Split(s, ",") {
			n, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", AttrQueryLens, err)
			}
			rec.QueryLens = append(rec.QueryLens, n)
		}
	}
	return rec, nil
}

// ReadRecords decodes a trace JSONL stream (a daemon's -trace file) and
// projects each tree into its record, sorted by arrival time (the daemons
// write trees in completion order, but replay needs arrival order).
func ReadRecords(r io.Reader) ([]*Record, error) {
	traces, err := ReadTraces(r)
	if err != nil {
		return nil, err
	}
	out := make([]*Record, len(traces))
	for i, tr := range traces {
		if out[i], err = project(tr); err != nil {
			return nil, fmt.Errorf("reqtrace: projecting trace %d: %w", i, err)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].ArrivalUnixNS < out[j].ArrivalUnixNS
	})
	return out, nil
}
