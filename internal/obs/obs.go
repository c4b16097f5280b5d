// Package obs is the zero-dependency observability layer of the engine: a
// lock-free metrics registry (atomic counters, gauges, and fixed-bucket
// latency histograms with quantile estimates), the pipeline-stage vocabulary
// shared by every engine, and per-stage span samples that trace sinks graft
// into request trees. The hot-path contract is strict: once a metric handle has been
// resolved (engine construction time), stamping it is a handful of atomic
// adds — no locks, no allocations, no map lookups — so instrumentation can
// stay always-on without disturbing the measured pipeline.
//
// The registry is exported two ways: a plaintext /metrics dump and an
// expvar snapshot (Snapshot) under /debug/vars.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Stage identifies one decoupled pipeline stage (paper Section IV): the six
// phases a query passes through between arriving and being reported. The
// values index Stats.StageNanos arrays and the per-stage counters below.
type Stage int

const (
	// StageHitDetect is the word-hit detection scan over the index block.
	// In the default one-pass engine the Algorithm 2 last-hit check is
	// inlined into this scan, so its per-hit cost is attributed here.
	StageHitDetect Stage = iota
	// StagePrefilter is the two-hit prefilter's separable work: building
	// and resetting the per-(sequence, diagonal) last-hit arrays.
	StagePrefilter
	// StageSort is hit reordering (the LSD radix sort by default).
	StageSort
	// StageUngapped is ungapped extension over the reordered hits.
	StageUngapped
	// StageGapped is the score-only gapped extension.
	StageGapped
	// StageTraceback is the final stage: traceback re-alignment of the
	// reported HSPs plus E-value ranking.
	StageTraceback
	// NumStages is the number of pipeline stages.
	NumStages
)

// stageNames are the wire names used in spans and metrics.
var stageNames = [NumStages]string{
	"hit_detect", "prefilter", "sort", "ungapped", "gapped", "traceback",
}

func (s Stage) String() string {
	if s >= 0 && s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// StageNames returns the six stage names in pipeline order.
func StageNames() []string {
	out := make([]string, NumStages)
	for i := range stageNames {
		out[i] = stageNames[i]
	}
	return out
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically updated float64 value (latest wins).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the fixed bucket count of a Histogram: bucket i holds
// observations v with 2^(i-1) < v <= 2^i (bucket 0 holds v <= 1), so 64
// buckets cover every non-negative int64 and the mapping is one BitLen —
// no search, no configuration, no allocation.
const histBuckets = 64

// Histogram is a lock-free fixed-bucket histogram over int64 observations
// (nanoseconds, in this repo). Observe is wait-free: one BitLen plus three
// atomic adds. Quantiles are estimated from the power-of-two buckets, so
// they carry at most 2x resolution error — plenty for "did the sort stay
// under 5% of runtime" questions, and the price of never locking.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1)) // smallest i with v <= 1<<i
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the mean observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile estimates the q-quantile (0 <= q <= 1) as the upper bound of the
// bucket containing it. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation.
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i == 0 {
				return 1
			}
			if i >= 63 {
				return math.MaxInt64
			}
			return 1 << i
		}
	}
	return math.MaxInt64
}

// Buckets returns the non-empty buckets as (upper bound, count) pairs, in
// ascending bound order. Allocates; not for the hot path.
func (h *Histogram) Buckets() (bounds []int64, counts []int64) {
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		b := int64(math.MaxInt64)
		if i < 63 {
			b = 1 << i
		}
		bounds = append(bounds, b)
		counts = append(counts, c)
	}
	return bounds, counts
}

// HistogramSnapshot is the exported view of a Histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// Snapshot captures the histogram's summary statistics.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Registry holds named metrics. Registration (Counter/Gauge/Histogram
// lookup-or-create) takes a mutex and may allocate; it is meant for
// construction time. The returned handles are lock-free to stamp and the
// registry is safe to dump concurrently with stamping.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Default is the process-wide registry: the engine's default pipeline
// metrics live here, and the -debug-addr endpoint serves it.
var Default = NewRegistry()

// Counter returns the named counter, creating it if needed. Panics if the
// name is already registered as a different metric kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFreeLocked(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFreeLocked(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFreeLocked(name, "histogram")
	h := &Histogram{}
	r.histograms[name] = h
	return h
}

// checkFreeLocked panics when name is taken by another metric kind —
// always a programming error worth failing loudly on.
func (r *Registry) checkFreeLocked(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic("obs: " + name + " already registered as counter, requested as " + kind)
	}
	if _, ok := r.gauges[name]; ok {
		panic("obs: " + name + " already registered as gauge, requested as " + kind)
	}
	if _, ok := r.histograms[name]; ok {
		panic("obs: " + name + " already registered as histogram, requested as " + kind)
	}
}

// Snapshot returns a JSON-encodable view of every metric: counters and
// gauges by name, histograms as summary objects.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		out[name] = h.Snapshot()
	}
	return out
}

// WriteText dumps the registry in a plaintext, line-oriented format
// ("name value", histograms expanded to _count/_sum/_p50/_p95/_p99 plus
// non-empty _bucket_le lines), sorted by name — the /metrics payload.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	type namedHist struct {
		name string
		h    *Histogram
	}
	lines := make([]string, 0, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("%s %g", name, g.Value()))
	}
	hists := make([]namedHist, 0, len(r.histograms))
	for name, h := range r.histograms {
		hists = append(hists, namedHist{name, h})
	}
	r.mu.Unlock()

	for _, nh := range hists {
		s := nh.h.Snapshot()
		lines = append(lines,
			fmt.Sprintf("%s_count %d", nh.name, s.Count),
			fmt.Sprintf("%s_sum %d", nh.name, s.Sum),
			fmt.Sprintf("%s_p50 %d", nh.name, s.P50),
			fmt.Sprintf("%s_p95 %d", nh.name, s.P95),
			fmt.Sprintf("%s_p99 %d", nh.name, s.P99),
		)
		bounds, counts := nh.h.Buckets()
		for i := range bounds {
			lines = append(lines, fmt.Sprintf("%s_bucket_le_%d %d", nh.name, bounds[i], counts[i]))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// PipelineMetrics bundles the engine-facing metric handles, pre-resolved so
// the scheduler's per-task stamp is pure atomic adds. One instance (Pipe)
// is registered in Default; tests and embedders can build isolated bundles
// against their own registries.
type PipelineMetrics struct {
	// StageNanos[s] accumulates wall time spent in stage s across all
	// queries and tasks.
	StageNanos [NumStages]*Counter

	// Event counters mirroring search.Stats, process-wide.
	Hits        *Counter // word hits visited in hit detection
	Pairs       *Counter // two-hit pairs surviving the prefilter
	SortedItems *Counter // records through hit reordering
	Extensions  *Counter // ungapped extensions performed
	Kept        *Counter // ungapped extensions above the trigger
	GappedExts  *Counter // score-only gapped extensions
	Tracebacks  *Counter // traceback re-alignments

	Queries *Counter // queries finalized
	Tasks   *Counter // scheduler (block x query) tasks executed
	Batches *Counter // batch searches completed

	// TaskNanos is the latency distribution of scheduler task grains;
	// QueryNanos is the distribution of total per-query pipeline time
	// (the sum of a query's stage nanos).
	TaskNanos  *Histogram
	QueryNanos *Histogram

	// Scheduler aggregates from the last batch (gauge) and lifetime
	// busy/stall totals.
	SchedUtilizationPermille *Gauge
	SchedBusyNanos           *Counter
	SchedStallNanos          *Counter

	// Fault-tolerance counters: scheduler tasks whose panic was isolated,
	// queries abandoned by cancellation/deadline/poisoning, and batches
	// whose deadline expired.
	TasksPanicked    *Counter
	QueriesCancelled *Counter
	DeadlineExceeded *Counter
}

// NewPipelineMetrics registers the pipeline metric set in r under the
// stable "pipeline_*" / "sched_*" names and returns the handle bundle.
func NewPipelineMetrics(r *Registry) *PipelineMetrics {
	p := &PipelineMetrics{
		Hits:        r.Counter("pipeline_hits_total"),
		Pairs:       r.Counter("pipeline_pairs_total"),
		SortedItems: r.Counter("pipeline_sorted_items_total"),
		Extensions:  r.Counter("pipeline_ungapped_extensions_total"),
		Kept:        r.Counter("pipeline_kept_extensions_total"),
		GappedExts:  r.Counter("pipeline_gapped_extensions_total"),
		Tracebacks:  r.Counter("pipeline_tracebacks_total"),

		Queries: r.Counter("pipeline_queries_total"),
		Tasks:   r.Counter("sched_tasks_total"),
		Batches: r.Counter("sched_batches_total"),

		TaskNanos:  r.Histogram("sched_task_nanos"),
		QueryNanos: r.Histogram("pipeline_query_nanos"),

		SchedUtilizationPermille: r.Gauge("sched_utilization_permille"),
		SchedBusyNanos:           r.Counter("sched_busy_nanos_total"),
		SchedStallNanos:          r.Counter("sched_stall_nanos_total"),

		TasksPanicked:    r.Counter("tasks_panicked"),
		QueriesCancelled: r.Counter("queries_cancelled"),
		DeadlineExceeded: r.Counter("deadline_exceeded"),
	}
	for s := Stage(0); s < NumStages; s++ {
		p.StageNanos[s] = r.Counter("pipeline_stage_" + s.String() + "_nanos_total")
	}
	return p
}

// ServerMetrics bundles the serving-layer metric handles: admission
// outcomes, queue pressure, degraded-mode state, and hot-reload counts.
// Like PipelineMetrics, handles are resolved once (server construction) and
// stamped lock-free on every request.
type ServerMetrics struct {
	Admitted        *Counter // requests that acquired a run token
	Shed            *Counter // requests rejected 429 at admission (queue full)
	TimedOut        *Counter // requests whose deadline expired while queued
	Reloads         *Counter // successful hot database reloads
	ReloadsRejected *Counter // reloads rejected (corrupt/mismatched container)

	// Ingestion outcomes (POST /ingest on a store-backed daemon).
	Ingests         *Counter // batches durably committed
	IngestsShed     *Counter // batches refused 503 (single-flight busy / draining)
	IngestsRejected *Counter // batches refused 4xx (validation, no store)
	IngestsFailed   *Counter // batches that failed mid-commit (store needs recovery)
	IngestedSeqs    *Counter // sequences committed across all batches
	Compactions     *Counter // delta compactions completed

	// CompactionsFailed counts compactions that failed after their batch was
	// durable; the batch is served anyway.
	CompactionsFailed *Counter

	QueueDepth  *Gauge // requests currently waiting for a run token
	Inflight    *Gauge // requests currently searching
	Degraded    *Gauge // 1 while degraded mode is tripped, else 0
	Generation  *Gauge // current database generation (1-based)
	IndexBytes  *Gauge // bytes the serving database's index holds (blast.Database.IndexSizeBytes)
	ManifestSeq *Gauge // ingest-store manifest commit seq (0 = not store-backed)
	DeltaCount  *Gauge // delta containers currently layered on the base

	QueueWaitNanos *Histogram // admission-queue wait per admitted request
	RequestNanos   *Histogram // total handler time per admitted request
}

// NewServerMetrics registers the serving metric set in r under the stable
// "requests_*" / "queue_*" / daemon gauge names.
func NewServerMetrics(r *Registry) *ServerMetrics {
	return &ServerMetrics{
		Admitted:        r.Counter("requests_admitted"),
		Shed:            r.Counter("requests_shed"),
		TimedOut:        r.Counter("requests_timed_out"),
		Reloads:         r.Counter("db_reloads"),
		ReloadsRejected: r.Counter("db_reloads_rejected"),
		Ingests:         r.Counter("ingest_batches"),
		IngestsShed:     r.Counter("ingest_shed"),
		IngestsRejected: r.Counter("ingest_rejected"),
		IngestsFailed:   r.Counter("ingest_failed"),
		IngestedSeqs:    r.Counter("ingest_sequences"),
		Compactions:     r.Counter("ingest_compactions"),
		QueueDepth:      r.Gauge("queue_depth"),
		Inflight:        r.Gauge("requests_inflight"),
		Degraded:        r.Gauge("degraded_mode"),
		Generation:      r.Gauge("db_generation"),
		IndexBytes:      r.Gauge("index_bytes"),
		ManifestSeq:     r.Gauge("manifest_seq"),
		DeltaCount:      r.Gauge("delta_count"),
		QueueWaitNanos:  r.Histogram("queue_wait_nanos"),
		RequestNanos:    r.Histogram("request_nanos"),

		CompactionsFailed: r.Counter("ingest_compactions_failed"),
	}
}

// RouterMetrics bundles the scatter-gather routing tier's metric handles:
// request outcomes, per-shard scatter results, and the scatter/merge phase
// latencies. Handles are resolved once (router construction) and stamped
// lock-free per request.
type RouterMetrics struct {
	Requests *Counter // scatter-gather searches routed
	Partial  *Counter // responses incomplete because >=1 shard contributed nothing
	AllShed  *Counter // requests refused outright: every shard shed

	ShardSearches *Counter // per-shard search attempts (Requests x fanout)
	ShardSheds    *Counter // shard attempts refused by worker backpressure
	ShardErrors   *Counter // shard attempts that failed for any other reason

	Fanout *Gauge // shard count the router scatters over

	ScatterNanos *Histogram // slowest-shard scatter time per request
	MergeNanos   *Histogram // merge time per request

	// Replica-lifecycle metrics (the resilience layer around each worker).
	ReplicasHealthy *Gauge   // replicas currently in rotation
	ReplicasEjected *Gauge   // replicas currently out of rotation (failed probe or requests)
	Ejections       *Counter // replicas taken out of rotation, either cause
	Readmissions    *Counter // replicas returned to rotation
	Retries         *Counter // retry attempts spent (beyond first attempts)
	RetryBudgetDry  *Counter // retries forgone because the request budget was spent
}

// NewRouterMetrics registers the routing metric set in r under the stable
// "router_*" names.
func NewRouterMetrics(r *Registry) *RouterMetrics {
	return &RouterMetrics{
		Requests:      r.Counter("router_requests"),
		Partial:       r.Counter("router_partial_responses"),
		AllShed:       r.Counter("router_requests_all_shed"),
		ShardSearches: r.Counter("router_shard_searches"),
		ShardSheds:    r.Counter("router_shard_sheds"),
		ShardErrors:   r.Counter("router_shard_errors"),
		Fanout:        r.Gauge("router_fanout_shards"),
		ScatterNanos:  r.Histogram("router_scatter_nanos"),
		MergeNanos:    r.Histogram("router_merge_nanos"),

		ReplicasHealthy: r.Gauge("router_replicas_healthy"),
		ReplicasEjected: r.Gauge("router_replicas_ejected"),
		Ejections:       r.Counter("router_replica_ejections"),
		Readmissions:    r.Counter("router_replica_readmissions"),
		Retries:         r.Counter("router_retries"),
		RetryBudgetDry:  r.Counter("router_retry_budget_exhausted"),
	}
}

// Pipe is the default engine metric bundle, registered in Default.
var Pipe = NewPipelineMetrics(Default)

// Discard is a metric bundle attached to a private, unexported registry:
// stamping it exercises the exact hot-path code of Pipe while keeping every
// number invisible — the "observability disabled" configuration used by the
// on/off identity tests.
var Discard = NewPipelineMetrics(NewRegistry())
