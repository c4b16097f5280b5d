// Observability surface of the public API: per-query stage spans built
// from the pipeline stats every Result already carries. Materializing them
// allocates, so it happens here at reporting time — never inside the
// engine's hot path — and attaching a trace sink costs nothing per
// scheduler task.
package blast

import "repro/internal/obs"

// StageSpans returns this result's per-stage timing, one span per pipeline
// stage in order (all six stages are always present, zero-time included).
func (r *Result) StageSpans() []obs.Span { return r.Stats.Spans() }
