package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// admission is the bounded queue plus token semaphore in front of the
// scheduler. A request first claims a wait slot (shed with 429 when all
// Queue slots are taken — the queue is never unbounded), then blocks for a
// run token (Concurrency tokens, sized to the scheduler's worker pool) or
// until its deadline expires. Every transition stamps the serving metrics,
// so requests_shed / requests_timed_out / queue_depth are exact counts of
// what clients observed, not samples.
type admission struct {
	queue    int64
	tokens   chan struct{}
	waiting  atomic.Int64
	inflight atomic.Int64
	met      *obs.ServerMetrics
}

func newAdmission(cfg Config, met *obs.ServerMetrics) *admission {
	return &admission{
		queue:  int64(cfg.Queue),
		tokens: make(chan struct{}, cfg.Concurrency),
		met:    met,
	}
}

// depth returns the current number of waiting requests.
func (a *admission) depth() int64 { return a.waiting.Load() }

// enter claims a wait slot, reporting false (a shed) when the queue is full.
func (a *admission) enter() bool {
	n := a.waiting.Add(1)
	if n > a.queue {
		a.leave()
		a.met.Shed.Add(1)
		return false
	}
	a.met.QueueDepth.Set(float64(n))
	return true
}

// leave releases a wait slot (token acquired, deadline expired, or shed).
func (a *admission) leave() {
	n := a.waiting.Add(-1)
	if n < 0 {
		panic("server: admission queue underflow")
	}
	a.met.QueueDepth.Set(float64(n))
}

// acquire blocks until a run token is free or done fires. It owns the wait
// slot either way: the caller must have entered, and must call release (not
// leave) after a true return.
func (a *admission) acquire(done <-chan struct{}) bool {
	got := false
	select {
	case a.tokens <- struct{}{}:
		got = true
	default:
		select {
		case a.tokens <- struct{}{}:
			got = true
		case <-done:
		}
	}
	a.leave()
	if got {
		a.met.Inflight.Set(float64(a.inflight.Add(1)))
	}
	return got
}

// release returns a run token.
func (a *admission) release() {
	a.met.Inflight.Set(float64(a.inflight.Add(-1)))
	<-a.tokens
}

// degrader is the load-shedding mode controller: hysteresis over the
// admission-queue fill fraction, with a dwell time in both directions so a
// transient burst does not flap the mode. It is driven by the admission
// path (observe on every queue transition), so a server with no traffic
// freezes in its current mode — which is correct: no queue, no pressure.
type degrader struct {
	mu            sync.Mutex
	high, low     int64 // absolute queue depths, precomputed from fractions
	after         time.Duration
	pressureSince time.Time
	calmSince     time.Time
	on            bool
	met           *obs.ServerMetrics
}

func newDegrader(cfg Config, met *obs.ServerMetrics) *degrader {
	high := int64(degradeHigh * float64(cfg.Queue))
	if high < 1 {
		high = 1
	}
	low := int64(degradeLow * float64(cfg.Queue))
	if low >= high {
		low = high - 1
	}
	return &degrader{high: high, low: low, after: cfg.DegradeAfter, met: met}
}

// observe feeds one queue-depth sample and returns the current mode.
func (d *degrader) observe(depth int64, now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.on {
		if depth >= d.high {
			if d.pressureSince.IsZero() {
				d.pressureSince = now
			}
			if now.Sub(d.pressureSince) >= d.after {
				d.on = true
				d.calmSince = time.Time{}
				d.met.Degraded.Set(1)
			}
		} else {
			d.pressureSince = time.Time{}
		}
		return d.on
	}
	if depth <= d.low {
		if d.calmSince.IsZero() {
			d.calmSince = now
		}
		if now.Sub(d.calmSince) >= d.after {
			d.on = false
			d.pressureSince = time.Time{}
			d.met.Degraded.Set(0)
		}
	} else {
		d.calmSince = time.Time{}
	}
	return d.on
}

// active returns the current mode without feeding a sample.
func (d *degrader) active() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.on
}
