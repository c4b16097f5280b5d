package router

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/blast"
	"repro/internal/obs"
	"repro/internal/reqtrace"
)

// ShardStatus is the router's per-shard account of one scatter: which
// replica answered (or was last tried) and how its search ended. Exactly one
// of the three outcomes holds: OK (result merged), Shed (every tried replica
// refused under backpressure, RetryAfter carries its hint), or failed (Err
// non-nil, not a shed). A non-OK shard never silently becomes "zero hits" —
// the merge marks every query incomplete instead.
type ShardStatus struct {
	Shard      int
	Worker     string
	OK         bool
	Shed       bool
	RetryAfter time.Duration // only when Shed
	Err        error         // nil when OK
	Nanos      int64         // wall time of this shard's search (all attempts)
	Completed  int           // queries the shard completed (when OK)
	Attempts   int           // upstream attempts this shard spent (each retry adds one; 0 when no replica was eligible)
}

// Report describes how one scatter-gather request was routed: per-shard
// statuses and phase timings. RetryAfter aggregates the shed hints (the
// maximum, so a client retrying after it clears every saturated replica).
type Report struct {
	Shards       []ShardStatus
	ScatterNanos int64 // slowest shard's wall time (shards run concurrently)
	MergeNanos   int64
	RetryAfter   time.Duration
}

// Sheds counts shards that shed this request.
func (r *Report) Sheds() int {
	n := 0
	for i := range r.Shards {
		if r.Shards[i].Shed {
			n++
		}
	}
	return n
}

// Failed counts shards that failed (non-shed errors).
func (r *Report) Failed() int {
	n := 0
	for i := range r.Shards {
		if r.Shards[i].Err != nil && !r.Shards[i].Shed {
			n++
		}
	}
	return n
}

// ErrAllShardsUnavailable is returned by Search when no shard contributed a
// result, so there is nothing honest to merge. The Report tells shed
// (retryable, 429-shaped) apart from failure (503-shaped).
var ErrAllShardsUnavailable = errors.New("router: no shard available, nothing to merge")

// Options configures a Router.
type Options struct {
	// Registry receives the router_* metrics. Nil means obs.Default.
	Registry *obs.Registry
	// Resilience tunes the per-replica lifecycle layer (the probe- and
	// request-fed gate, retry budget). Zero fields select the defaults.
	Resilience ResilienceConfig
}

// Router is the scatter-gather tier: it owns one replica set per shard,
// scatters every search to all shards concurrently (one replica each, taken
// round-robin among the shard's *eligible* replicas), and gathers the shard
// results into a merged BatchResult that is byte-identical to a monolithic
// search when every shard answers — and honestly incomplete when one does
// not.
//
// Every replica is wrapped in a resilience layer: one gate that takes the
// replica out of rotation on a failed probe (Start launches the prober) or a
// run of request-path failures and readmits it on a jittered backoff, and a
// per-request retry budget that bounds how many retries one request may
// spend. A shard has at most one attempt in flight.
type Router struct {
	reps [][]*replica
	// next is one round-robin cursor per shard, so shards advance
	// independently.
	next []atomic.Uint64
	met  *obs.RouterMetrics
	res  ResilienceConfig

	outCount atomic.Int64

	probeMu   sync.Mutex
	probeStop chan struct{}
	probeDone chan struct{}
}

// New builds a Router over shards[s] = the replicas serving shard s. Every
// shard needs at least one replica; the shard count is fixed for the
// router's lifetime (it is baked into the containers' id mapping).
func New(shards [][]Worker, opts Options) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("router: need at least one shard")
	}
	total := 0
	for s, reps := range shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", s)
		}
		total += len(reps)
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default
	}
	res := opts.Resilience.withDefaults()
	rt := &Router{
		met:  obs.NewRouterMetrics(reg),
		res:  res,
		next: make([]atomic.Uint64, len(shards)),
	}
	rt.reps = make([][]*replica, len(shards))
	for s, ws := range shards {
		rt.reps[s] = make([]*replica, len(ws))
		for i, w := range ws {
			rt.reps[s][i] = newReplica(w, res, rt.met, &rt.outCount, int64(total))
		}
	}
	rt.met.Fanout.Set(float64(len(shards)))
	rt.met.ReplicasHealthy.Set(float64(total))
	rt.met.ReplicasEjected.Set(0)
	return rt, nil
}

// NumShards returns the fanout.
func (rt *Router) NumShards() int { return len(rt.reps) }

// Resilience returns the resolved resilience configuration.
func (rt *Router) Resilience() ResilienceConfig { return rt.res }

// Workers returns the raw workers of one shard (reload orchestration walks
// them; indexes match ReplicaStates).
func (rt *Router) Workers(shard int) []Worker {
	out := make([]Worker, len(rt.reps[shard]))
	for i, r := range rt.reps[shard] {
		out[i] = r.w
	}
	return out
}

// ReplicaStates snapshots every replica's lifecycle state, shard-major.
func (rt *Router) ReplicaStates() [][]ReplicaState {
	out := make([][]ReplicaState, len(rt.reps))
	for s, reps := range rt.reps {
		out[s] = make([]ReplicaState, len(reps))
		for i, r := range reps {
			out[s][i] = r.snapshot()
		}
	}
	return out
}

// HealthErr reports nil while every shard keeps at least one replica in
// rotation, and an error naming the starved shards otherwise — the
// frontend's /readyz folds it in, so a fleet that cannot answer a full
// scatter pulls itself from upstream rotation instead of serving guaranteed
// incompletes.
func (rt *Router) HealthErr() error {
	var bad []int
	for s := range rt.reps {
		if rt.HealthyReplicas(s) == 0 {
			bad = append(bad, s)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("router: shard(s) %v have no replica in rotation", bad)
	}
	return nil
}

// HealthyReplicas counts the replicas of one shard currently in rotation.
func (rt *Router) HealthyReplicas(shard int) int {
	n := 0
	now := time.Now()
	for _, r := range rt.reps[shard] {
		if r.eligible(now) {
			n++
		}
	}
	return n
}

// Start launches the health prober: every ProbeInterval each replica that
// exposes a HealthCheck is probed concurrently — failing replicas leave
// rotation, out ones are re-probed once their jittered backoff runs out and
// readmitted when the probe passes. A no-op when probing is disabled or no
// replica is probeable. Pair with Close.
func (rt *Router) Start() {
	rt.probeMu.Lock()
	defer rt.probeMu.Unlock()
	if rt.probeStop != nil || rt.res.ProbeInterval <= 0 {
		return
	}
	probeable := false
	for _, reps := range rt.reps {
		for _, r := range reps {
			if r.hc != nil {
				probeable = true
			}
		}
	}
	if !probeable {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	rt.probeStop, rt.probeDone = stop, done
	go func() {
		defer close(done)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-stop
			cancel()
		}()
		t := time.NewTicker(rt.res.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				rt.probeAll(ctx, now)
			}
		}
	}()
}

// probeAll runs one probe cycle across the fleet, concurrently per replica.
func (rt *Router) probeAll(ctx context.Context, now time.Time) {
	var wg sync.WaitGroup
	for _, reps := range rt.reps {
		for _, r := range reps {
			if r.hc == nil {
				continue
			}
			wg.Add(1)
			go func(r *replica) {
				defer wg.Done()
				r.probe(ctx, now)
			}(r)
		}
	}
	wg.Wait()
}

// Close stops the prober (idempotent; safe without Start).
func (rt *Router) Close() {
	rt.probeMu.Lock()
	defer rt.probeMu.Unlock()
	if rt.probeStop == nil {
		return
	}
	close(rt.probeStop)
	<-rt.probeDone
	rt.probeStop, rt.probeDone = nil, nil
}

// spend takes one attempt from the request's retry budget; false (with the
// budget-dry metric stamped) means the request has spent its amplification
// allowance and the current outcome stands.
func (rt *Router) spend(budget *atomic.Int64) bool {
	if budget.Add(-1) < 0 {
		budget.Add(1)
		rt.met.RetryBudgetDry.Add(1)
		return false
	}
	return true
}

// refund returns an attempt taken by spend when it ends up unused (no
// eligible replica materialized).
func refund(budget *atomic.Int64) { budget.Add(1) }

// pick selects one eligible replica of shard s round-robin, excluding
// indices in excl (nil = none): the shard's cursor advances once per pick,
// indexing the eligible replicas in order. -1 means no eligible replica.
func (rt *Router) pick(s int, excl map[int]bool) int {
	reps := rt.reps[s]
	now := time.Now()
	idxs := make([]int, 0, len(reps))
	for i, r := range reps {
		if !excl[i] && r.eligible(now) {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return -1
	}
	return idxs[(rt.next[s].Add(1)-1)%uint64(len(idxs))]
}

// classifyOutcome maps one attempt's error, under the request context ctx,
// to the gate's view of it.
func classifyOutcome(ctx context.Context, err error) int {
	if err == nil {
		return outcomeOK
	}
	var busy *BusyError
	if errors.As(err, &busy) {
		return outcomeShed
	}
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// The request was cancelled (client gone, drain) or ran out of
		// deadline: not the replica's verdict, the gate learns nothing.
		return outcomeNeutral
	}
	return outcomeFail
}

// sleepCtx sleeps d unless the context dies first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// attemptOut is one upstream attempt's outcome.
type attemptOut struct {
	idx int // replica index within the shard
	res *blast.ShardResult
	err error
}

// searchShard runs one shard's slice of the scatter through the resilience
// layer, one attempt at a time on the calling goroutine: pick an eligible
// replica, run the attempt, classify its outcome for the gate, and on
// failure retry — governed by the shared per-request budget — with backoff.
// A shed is retried only when a *different* eligible replica exists:
// re-asking the replica that just declared itself saturated would amplify
// the exact overload it shed. It fills st and returns the answering
// replica's result (nil when the shard contributed nothing).
func (rt *Router) searchShard(ctx context.Context, queries []string, s int, budget *atomic.Int64, st *ShardStatus, scatter *reqtrace.Span) *blast.ShardResult {
	n := len(rt.reps)
	reps := rt.reps[s]
	start := time.Now()
	var ss *reqtrace.Span
	if scatter != nil {
		ss = scatter.Child("shard"+strconv.Itoa(s), start.UnixNano())
	}
	st.Shard = s

	// attempt runs one upstream attempt on replica idx and feeds its outcome
	// to the gate. A retry gets an "attempt:retry" span under the shard
	// span; the first attempt does not, keeping the healthy-path trace shape
	// identical to a plain scatter.
	attempt := func(idx int, kind string) attemptOut {
		st.Attempts++
		rt.met.ShardSearches.Add(1)
		t0 := time.Now()
		var as *reqtrace.Span
		if ss != nil && kind != "" {
			as = ss.Child("attempt:"+kind, t0.UnixNano())
			as.SetAttr("worker", reps[idx].w.Name())
		}
		res, err := reps[idx].w.Search(reqtrace.ContextWithSpan(ctx, ss), queries, s, n)
		o := classifyOutcome(ctx, err)
		reps[idx].onResult(o)
		if as != nil {
			switch o {
			case outcomeOK:
				as.SetAttr("status", "ok")
			case outcomeShed:
				as.SetAttr("status", "shed")
			case outcomeFail:
				as.SetAttr("status", "error")
			default:
				as.SetAttr("status", "cancelled")
			}
			as.End(time.Since(t0).Nanoseconds())
		}
		return attemptOut{idx: idx, res: res, err: err}
	}

	finish := func(out attemptOut) *blast.ShardResult {
		st.Nanos = time.Since(start).Nanoseconds()
		if out.err == nil {
			st.OK = true
			st.Worker = reps[out.idx].w.Name()
			st.Completed = out.res.CompletedCount()
			if ss != nil {
				ss.SetAttr("worker", st.Worker)
				ss.SetAttr("status", "ok")
				ss.SetAttr("completed", strconv.Itoa(st.Completed))
				reqtrace.AttachShardQuerySpans(ss, start.UnixNano(), out.res)
				ss.End(st.Nanos)
			}
			return out.res
		}
		st.Err = out.err
		if out.idx >= 0 {
			st.Worker = reps[out.idx].w.Name()
		}
		var busy *BusyError
		if errors.As(out.err, &busy) {
			st.Shed = true
			st.RetryAfter = busy.RetryAfter
			rt.met.ShardSheds.Add(1)
			ss.SetAttr("status", "shed")
		} else {
			rt.met.ShardErrors.Add(1)
			ss.SetAttr("status", "error")
		}
		if ss != nil {
			if st.Worker != "" {
				ss.SetAttr("worker", st.Worker)
			}
			ss.End(st.Nanos)
		}
		return nil
	}

	tried := map[int]bool{}
	idx := rt.pick(s, nil)
	if idx < 0 {
		return finish(attemptOut{idx: -1, err: fmt.Errorf("router: shard %d: no eligible replica (all out of rotation)", s)})
	}
	tried[idx] = true
	out := attempt(idx, "")

	retry := 0
	for out.err != nil && ctx.Err() == nil {
		isShed := classifyOutcome(ctx, out.err) == outcomeShed
		if !rt.spend(budget) {
			break
		}
		// A shed must move to a different replica; a failure prefers one but
		// may re-try the same (sole) replica while it stays in rotation.
		nidx := rt.pick(s, tried)
		if nidx < 0 && !isShed {
			nidx = rt.pick(s, nil)
		}
		if nidx < 0 {
			refund(budget)
			break
		}
		rt.met.Retries.Add(1)
		retry++
		if !sleepCtx(ctx, time.Duration(retry)*rt.res.RetryBackoff) {
			break
		}
		out = attempt(nidx, "retry")
		tried[nidx] = true
	}
	return finish(out)
}

// Search scatters the query batch to every shard and merges the gathered
// results.
//
// The merged BatchResult follows the blast contract: per-query Completed
// flags, zero-value placeholders for incomplete queries. A request with at
// least one answering shard succeeds with partial (honest) results; only
// when no shard answers does Search return ErrAllShardsUnavailable. The
// Report is never nil, also on error.
func (rt *Router) Search(ctx context.Context, queries []string) (*blast.BatchResult, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rt.met.Requests.Add(1)

	// Scatter span under whatever span the caller put in the context (the
	// frontend's search span; nil with tracing off, making every child below
	// a free no-op). Each shard gets a child span built inside its
	// goroutine — Span.Child is concurrency-safe — carrying the replica
	// choice and outcome, and, when the shard answered, the per-query
	// six-stage pipeline spans the shard's scheduler measured.
	parent := reqtrace.SpanFromContext(ctx)
	scatter := parent.Child("scatter", time.Now().UnixNano())

	n := len(rt.reps)
	rep := &Report{Shards: make([]ShardStatus, n)}
	parts := make([]*blast.ShardResult, n)
	var budget atomic.Int64
	if rt.res.RetryBudget > 0 {
		budget.Store(int64(rt.res.RetryBudget))
	}
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			parts[s] = rt.searchShard(ctx, queries, s, &budget, &rep.Shards[s], scatter)
		}(s)
	}
	wg.Wait()

	for i := range rep.Shards {
		if rep.Shards[i].Nanos > rep.ScatterNanos {
			rep.ScatterNanos = rep.Shards[i].Nanos
		}
		if rep.Shards[i].RetryAfter > rep.RetryAfter {
			rep.RetryAfter = rep.Shards[i].RetryAfter
		}
	}
	rt.met.ScatterNanos.Observe(rep.ScatterNanos)
	scatter.End(rep.ScatterNanos)

	answered := n - rep.Sheds() - rep.Failed()
	if answered == 0 {
		rt.met.AllShed.Add(1)
		return nil, rep, fmt.Errorf("%w: %d shed, %d failed of %d shards",
			ErrAllShardsUnavailable, rep.Sheds(), rep.Failed(), n)
	}

	mergeStart := time.Now()
	br, err := blast.MergeShards(queries, parts)
	rep.MergeNanos = time.Since(mergeStart).Nanoseconds()
	rt.met.MergeNanos.Observe(rep.MergeNanos)
	parent.StaticChild("merge", mergeStart.UnixNano(), rep.MergeNanos)
	if err != nil {
		return nil, rep, err
	}
	if answered < n {
		rt.met.Partial.Add(1)
	}
	return br, rep, nil
}
