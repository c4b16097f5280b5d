// Per-stage span samples. A span is one (stage, nanos) sample of one
// query's pipeline. The engine never builds these on the hot path: span
// materialization happens at reporting time from the per-query Stats the
// pipeline already carries, and trace sinks (internal/reqtrace) graft them
// under their query spans.
package obs

// Span is one stage's time sample within a query.
type Span struct {
	Stage string `json:"stage"`
	Nanos int64  `json:"nanos"`
}
