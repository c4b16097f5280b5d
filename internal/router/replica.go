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
// around every worker: health-probe ejection and readmission, the circuit
// breaker, and the per-request retry budget. The zero value of every field
// selects the documented default; negative values disable where noted.
type ResilienceConfig struct {
	// ProbeInterval is how often the prober health-checks every replica that
	// exposes a HealthCheck (default 1s; negative disables probing). Probes
	// only govern ejection/readmission — request-path failures are the
	// breaker's job.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default min(ProbeInterval, 1s)).
	ProbeTimeout time.Duration
	// ReadmitBackoff is the first readmission probe delay after an ejection;
	// it doubles (with jitter, never exceeding the nominal value) up to
	// ReadmitBackoffMax while the replica stays down. Defaults 500ms and 15s.
	ReadmitBackoff    time.Duration
	ReadmitBackoffMax time.Duration

	// BreakerFailures trips the breaker after this many consecutive
	// request-path failures (default 3; negative disables the breaker).
	BreakerFailures int
	// BreakerWindow and BreakerErrorRate trip the breaker when the failure
	// rate over the last BreakerWindow outcomes reaches the rate, even
	// without a consecutive run (defaults 16 and 0.5).
	BreakerWindow    int
	BreakerErrorRate float64
	// BreakerCooldown is how long an open breaker refuses traffic before
	// letting one half-open trial through (default 2s).
	BreakerCooldown time.Duration

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
	if c.BreakerFailures == 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 16
	}
	if c.BreakerErrorRate <= 0 || c.BreakerErrorRate > 1 {
		c.BreakerErrorRate = 0.5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	return c
}

// HealthChecker is the optional probe surface of a Worker. Replicas that
// expose it (RemoteWorker does, via GET /readyz) are ejected from rotation
// while the probe fails and readmitted with jittered exponential backoff once
// it recovers. Workers without it (test fakes, decorators that hide it) are
// never ejected — their failures are handled by the breaker alone.
type HealthChecker interface {
	HealthCheck(ctx context.Context) error
}

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

func breakerStateName(s int) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// attempt outcomes, as the breaker sees them. Sheds are backpressure from a
// live replica — they never trip the breaker (they would turn overload into
// ejection, the exact spiral breakers exist to prevent). Attempts cut short
// by the request (cancelled, expired deadline) are neutral: not the
// replica's verdict.
const (
	outcomeOK = iota
	outcomeShed
	outcomeFail
	outcomeNeutral
)

// replica wraps one Worker in the resilience state the router consults on
// every pick: the health gate (probe-driven ejection) and the circuit
// breaker (request-path failure driven). All state sits behind one mutex;
// the hot path takes it twice per attempt (pick and result).
type replica struct {
	w   Worker
	hc  HealthChecker // nil when the worker exposes no probe
	cfg ResilienceConfig
	met *obs.RouterMetrics

	// ejectedCount is the router-wide ejection tally backing the two gauges
	// (obs gauges are set-only, so transitions recompute from these).
	ejectedCount *atomic.Int64
	total        int64

	mu        sync.Mutex
	ejected   bool
	backoff   time.Duration // current readmission backoff (0 = healthy)
	nextProbe time.Time     // earliest readmission probe while ejected

	state       int
	consecFails int
	window      []bool // ring of request outcomes, true = failure
	windowN     int
	windowIdx   int
	openUntil   time.Time
	trial       bool // a half-open trial request is in flight
}

func newReplica(w Worker, cfg ResilienceConfig, met *obs.RouterMetrics, ejectedCount *atomic.Int64, total int64) *replica {
	hc, _ := w.(HealthChecker)
	return &replica{
		w: w, hc: hc, cfg: cfg, met: met,
		ejectedCount: ejectedCount, total: total,
		window: make([]bool, cfg.BreakerWindow),
	}
}

func (r *replica) setGauges() {
	ej := r.ejectedCount.Load()
	r.met.ReplicasEjected.Set(float64(ej))
	r.met.ReplicasHealthy.Set(float64(r.total - ej))
}

// healthy reports the probe gate alone (readiness aggregation); the breaker
// is a traffic decision, not a health one.
func (r *replica) healthy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.ejected
}

// eligibleHint is the read-only pick filter: in rotation and the breaker
// would admit an attempt right now. The actual half-open trial slot is
// claimed by tryAcquire on the replica the round-robin cursor picked.
func (r *replica) eligibleHint(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ejected {
		return false
	}
	switch r.state {
	case breakerOpen:
		return !now.Before(r.openUntil)
	case breakerHalfOpen:
		return !r.trial
	}
	return true
}

// tryAcquire commits to sending one attempt through the breaker: a no-op for
// a closed breaker, the single trial claim for an open-past-cooldown or
// half-open one. False means another goroutine took the trial first.
func (r *replica) tryAcquire(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ejected {
		return false
	}
	switch r.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Before(r.openUntil) {
			return false
		}
		r.state = breakerHalfOpen
		r.trial = true
		return true
	default: // half-open
		if r.trial {
			return false
		}
		r.trial = true
		return true
	}
}

// onResult feeds one attempt's outcome to the breaker.
func (r *replica) onResult(o int) {
	if o == outcomeNeutral || r.cfg.BreakerFailures < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case breakerHalfOpen:
		r.trial = false
		if o == outcomeFail {
			r.state = breakerOpen
			r.openUntil = time.Now().Add(r.cfg.BreakerCooldown)
			r.met.BreakerOpens.Add(1)
			return
		}
		// The trial answered (a shed counts: the replica is alive, its
		// backpressure is the shed path's business) — close and reset.
		r.state = breakerClosed
		r.resetBreakerLocked()
		r.met.BreakerCloses.Add(1)
	case breakerClosed:
		if o == outcomeShed {
			return
		}
		fail := o == outcomeFail
		r.window[r.windowIdx] = fail
		r.windowIdx = (r.windowIdx + 1) % len(r.window)
		if r.windowN < len(r.window) {
			r.windowN++
		}
		if !fail {
			r.consecFails = 0
			return
		}
		r.consecFails++
		trip := r.cfg.BreakerFailures > 0 && r.consecFails >= r.cfg.BreakerFailures
		if !trip && r.windowN == len(r.window) {
			fails := 0
			for _, f := range r.window {
				if f {
					fails++
				}
			}
			trip = float64(fails)/float64(r.windowN) >= r.cfg.BreakerErrorRate
		}
		if trip {
			r.state = breakerOpen
			r.openUntil = time.Now().Add(r.cfg.BreakerCooldown)
			r.resetBreakerLocked()
			r.met.BreakerOpens.Add(1)
		}
	}
	// breakerOpen: a straggler from before the trip; nothing to learn.
}

// releaseTrial undoes a tryAcquire whose attempt never launched (budget ran
// dry, backoff aborted), so an unclaimed half-open trial cannot wedge the
// replica out of rotation forever.
func (r *replica) releaseTrial() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == breakerHalfOpen {
		r.trial = false
	}
}

func (r *replica) resetBreakerLocked() {
	r.consecFails = 0
	r.windowN = 0
	r.windowIdx = 0
	r.trial = false
}

// probe runs one health-check cycle for this replica: eject on failure,
// readmit (with a clean breaker) on recovery, honoring the jittered
// exponential readmission backoff while down. No-op for workers without a
// HealthCheck.
func (r *replica) probe(ctx context.Context, now time.Time) {
	if r.hc == nil {
		return
	}
	r.mu.Lock()
	if r.ejected && now.Before(r.nextProbe) {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()

	pctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
	err := r.hc.HealthCheck(pctx)
	cancel()

	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		if !r.ejected {
			r.ejected = true
			r.backoff = r.cfg.ReadmitBackoff
			r.met.Ejections.Add(1)
			r.ejectedCount.Add(1)
			r.setGauges()
		} else {
			r.backoff *= 2
			if r.backoff > r.cfg.ReadmitBackoffMax {
				r.backoff = r.cfg.ReadmitBackoffMax
			}
		}
		// Jitter inside [backoff/2, backoff]: never later than the nominal
		// bound (the convergence test's ceiling), desynchronized across a
		// fleet restarting together.
		r.nextProbe = now.Add(r.backoff/2 + time.Duration(rand.Int63n(int64(r.backoff/2)+1)))
		return
	}
	if r.ejected {
		r.ejected = false
		r.backoff = 0
		r.state = breakerClosed
		r.resetBreakerLocked()
		r.met.Readmissions.Add(1)
		r.ejectedCount.Add(-1)
		r.setGauges()
	}
}

// ReplicaState is one replica's lifecycle snapshot (status endpoints, tests).
type ReplicaState struct {
	Name    string `json:"name"`
	Ejected bool   `json:"ejected"`
	Breaker string `json:"breaker"`
}

func (r *replica) snapshot() ReplicaState {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state
	if st == breakerOpen && !time.Now().Before(r.openUntil) {
		st = breakerHalfOpen // cooldown elapsed: next pick runs the trial
	}
	return ReplicaState{Name: r.w.Name(), Ejected: r.ejected, Breaker: breakerStateName(st)}
}
