package router

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ResilienceConfig tunes the per-replica lifecycle layer the router wraps
// around every worker — one gate per replica, fed by health probes and by
// request outcomes — and the per-request retry budget. The zero value of
// every field selects the documented default; negative values disable where
// noted.
type ResilienceConfig struct {
	// ProbeInterval is how often the prober health-checks every replica that
	// exposes a HealthCheck (default 1s; negative disables probing). A failed
	// probe takes the replica out of rotation until a probe passes again.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default min(ProbeInterval, 1s)).
	ProbeTimeout time.Duration
	// ReadmitBackoff is how long a replica stays out of rotation once a
	// failed probe or a run of request failures takes it out; it doubles
	// (with jitter, never exceeding the nominal value) up to
	// ReadmitBackoffMax each time the replica fails again before it answers
	// a request — a failed probe while out, or a failure on its first
	// request back. Defaults 500ms and 15s.
	ReadmitBackoff    time.Duration
	ReadmitBackoffMax time.Duration

	// RetryBudget is the number of retries one request may spend across all
	// shards (default 2; negative disables retries). A budget, not a
	// per-replica count: it bounds total amplification under correlated
	// failure.
	RetryBudget int
	// RetryBackoff is the pause before retry k, scaled by k (default 25ms).
	RetryBackoff time.Duration
}

func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
		if c.ProbeTimeout <= 0 || c.ProbeTimeout > time.Second {
			c.ProbeTimeout = time.Second
		}
	}
	if c.ReadmitBackoff <= 0 {
		c.ReadmitBackoff = 500 * time.Millisecond
	}
	if c.ReadmitBackoffMax <= 0 {
		c.ReadmitBackoffMax = 15 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	return c
}

// HealthChecker is the optional probe surface of a Worker. A replica that
// exposes it (RemoteWorker does, via GET /readyz and /shard/info) leaves
// rotation while the probe fails and comes back, after its jittered
// exponential backoff, once the probe passes. A worker without it (test
// fakes, decorators that hide it) never fails a probe: only request
// failures take it out.
type HealthChecker interface {
	HealthCheck(ctx context.Context) error
}

// maxStrikes is the run of consecutive request-path failures that takes a
// replica out of rotation.
const maxStrikes = 3

// Reasons a replica is out of rotation (ReplicaState.Reason).
const (
	reasonProbe    = "probe"
	reasonRequests = "requests"
)

// attempt outcomes, as the gate sees them. Sheds are backpressure from a
// live replica — they never count against it (that would turn overload into
// ejection, the spiral the survivors then inherit). Attempts cut short by
// the request (cancelled, expired deadline) are neutral: not the replica's
// verdict.
const (
	outcomeOK = iota
	outcomeShed
	outcomeFail
	outcomeNeutral
)

// replica wraps one Worker in the one gate the router consults on every
// pick: the replica is in rotation or out, and either signal — a failed
// health probe or maxStrikes consecutive request failures — takes it out
// for the current backoff. It comes back once the backoff has run out and
// its last probe passed, on probation: one more request failure sends it
// back out with the backoff doubled, one success clears strikes and
// backoff. All state sits behind one mutex; the hot path takes it twice per
// attempt (pick and result).
type replica struct {
	w   Worker
	hc  HealthChecker // nil when the worker exposes no probe
	cfg ResilienceConfig
	met *obs.RouterMetrics

	// outCount is the router-wide count of replicas out of rotation backing
	// the two gauges (obs gauges are set-only, so transitions recompute from
	// it).
	outCount *atomic.Int64
	total    int64

	mu      sync.Mutex
	out     bool
	reason  string        // what took the replica out; empty in rotation
	until   time.Time     // earliest return while out
	backoff time.Duration // the last out period; 0 once a request succeeds
	strikes int           // consecutive request-path failures
	probeOK bool          // the last probe's verdict (true without a HealthCheck)
}

func newReplica(w Worker, cfg ResilienceConfig, met *obs.RouterMetrics, outCount *atomic.Int64, total int64) *replica {
	hc, _ := w.(HealthChecker)
	return &replica{w: w, hc: hc, cfg: cfg, met: met, outCount: outCount, total: total, probeOK: true}
}

func (r *replica) setGauges() {
	out := r.outCount.Load()
	r.met.ReplicasEjected.Set(float64(out))
	r.met.ReplicasHealthy.Set(float64(r.total - out))
}

// eligible is the gate's one predicate, read by pick, readiness, the gauges
// and /replicas alike: in rotation, or out with its backoff run out and its
// last probe passed — which returns it to rotation now, on probation.
func (r *replica) eligible(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eligibleLocked(now)
}

func (r *replica) eligibleLocked(now time.Time) bool {
	if r.out && r.probeOK && !now.Before(r.until) {
		r.out, r.reason = false, ""
		r.strikes = maxStrikes - 1
		r.met.Readmissions.Add(1)
		r.outCount.Add(-1)
		r.setGauges()
	}
	return !r.out
}

// leaveLocked takes the replica out of rotation (or, already out, keeps it
// out) for the next backoff: the first after a success, doubled otherwise.
func (r *replica) leaveLocked(now time.Time, reason string) {
	if r.backoff == 0 {
		r.backoff = r.cfg.ReadmitBackoff
	} else {
		r.backoff = min(2*r.backoff, r.cfg.ReadmitBackoffMax)
	}
	// Jitter inside [backoff/2, backoff]: never later than the nominal bound
	// (the convergence test's ceiling), desynchronized across a fleet
	// restarting together.
	r.until = now.Add(r.backoff/2 + time.Duration(rand.Int63n(int64(r.backoff/2)+1)))
	r.reason = reason
	if !r.out {
		r.out = true
		r.met.Ejections.Add(1)
		r.outCount.Add(1)
		r.setGauges()
	}
}

// onResult feeds one attempt's outcome to the gate. Sheds and attempts the
// request cut short are neutral, and a result that lands while the replica
// is out is a straggler from before it left: nothing to learn.
func (r *replica) onResult(o int) {
	if o == outcomeShed || o == outcomeNeutral {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.out:
	case o == outcomeOK:
		r.strikes, r.backoff = 0, 0
	default:
		if r.strikes++; r.strikes >= maxStrikes {
			r.leaveLocked(time.Now(), reasonRequests)
		}
	}
}

// probe runs one health check for this replica: a failure takes it out of
// rotation (or, already out, doubles its backoff), a pass records the
// verdict and returns it if its backoff has run out. An out replica is not
// probed before its backoff runs out. No-op for workers without a
// HealthCheck.
func (r *replica) probe(ctx context.Context, now time.Time) {
	if r.hc == nil {
		return
	}
	r.mu.Lock()
	if r.out && now.Before(r.until) {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()

	pctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
	err := r.hc.HealthCheck(pctx)
	cancel()

	r.mu.Lock()
	defer r.mu.Unlock()
	r.probeOK = err == nil
	if err != nil {
		r.leaveLocked(now, reasonProbe)
		return
	}
	r.eligibleLocked(now)
}

// ReplicaState is one replica's lifecycle snapshot (status endpoints,
// tests). Reason names what took an ejected replica out of rotation:
// "probe" or "requests".
type ReplicaState struct {
	Name    string `json:"name"`
	Ejected bool   `json:"ejected"`
	Reason  string `json:"reason"`
}

func (r *replica) snapshot() ReplicaState {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.eligibleLocked(time.Now())
	return ReplicaState{Name: r.w.Name(), Ejected: r.out, Reason: r.reason}
}
