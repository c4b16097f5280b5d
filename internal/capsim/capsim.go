// Package capsim is a discrete-event capacity model of the serving tier:
// arrival → bounded admission queue → token-gated service (optionally an
// N-way shard scatter whose duration is the slowest shard plus a merge) →
// departure, with the daemon's exact backpressure semantics — a request
// arriving to a full queue is shed immediately, the per-request deadline
// covers queue wait (a request expired at dequeue times out without ever
// consuming a run token), and a service that would outlive its remaining
// deadline is cut at the deadline, as the real engine's between-task
// cancellation does.
//
// Service times are not analytical: they are empirical distributions fitted
// from the workload records projected from the daemons' traces
// (internal/reqtrace), so the model predicts p50/p95/p99 latency and shed
// rate as a function of arrival rate, queue bound, concurrency, and shard
// count for *this* database on *this* machine. Validate against a replayed
// overload run before trusting a sweep (see EXPERIMENTS.md).
package capsim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"repro/internal/reqtrace"
)

// Request is one simulated arrival: its offset from the workload start and
// its deadline budget (0 = none).
type Request struct {
	ArrivalNS  int64
	DeadlineNS int64
}

// Config fixes the serving topology under simulation. The zero value of each
// field selects the matching daemon default where one exists.
type Config struct {
	// Queue bounds how many requests may wait for a run token; an arrival
	// past it is shed. <= 0 means the daemon default, 64.
	Queue int
	// Concurrency is the number of run tokens. <= 0 means 1.
	Concurrency int
	// Shards is the scatter width: a service draw is the maximum of Shards
	// independent Service draws plus a Merge draw. <= 1 models the
	// monolithic daemon (one Service draw, no merge).
	Shards int
	// Service is the per-shard (monolithic: per-request) search service
	// time distribution. Required.
	Service *Dist
	// Merge is the post-scatter merge time (nil = 0).
	Merge *Dist
	// Seed makes runs reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 1
	}
	if c.Shards <= 1 {
		c.Shards = 1
	}
	return c
}

// Result is one simulated run's account, in the replayer's vocabulary so
// predicted and measured numbers compare field by field.
type Result struct {
	Arrived   int
	ByOutcome map[string]int
	// OKLatencies are the end-to-end latencies of completed requests;
	// WaitNanos the queue waits of every request that reached the queue
	// head (ok and timeout alike).
	OKLatencies []int64
	WaitNanos   []int64
}

// ShedRate is the fraction of arrivals shed at the queue.
func (r *Result) ShedRate() float64 {
	if r.Arrived == 0 {
		return 0
	}
	return float64(r.ByOutcome[reqtrace.OutcomeShed]) / float64(r.Arrived)
}

// TimeoutRate is the fraction of arrivals that exhausted their deadline.
func (r *Result) TimeoutRate() float64 {
	if r.Arrived == 0 {
		return 0
	}
	return float64(r.ByOutcome[reqtrace.OutcomeTimeout]) / float64(r.Arrived)
}

// LatencyQuantile returns the q-quantile of completed-request latency in
// nanoseconds, 0 with none — the predicted twin of
// ReplayResult.LatencyQuantile.
func (r *Result) LatencyQuantile(q float64) int64 {
	return reqtrace.QuantileNanos(r.OKLatencies, q)
}

// Event kinds, ordered so a departure at time t frees its token before an
// arrival at the same instant is judged against the queue bound — matching
// the real daemon, where the release happens-before the next admission
// check observes it.
const (
	evDeparture = iota
	evArrival
)

type event struct {
	at   int64
	kind int
	seq  int // FIFO tiebreak for identical (at, kind)
	req  int // arrival: index into the workload
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// waiting is one queued request.
type waiting struct {
	arrival  int64
	deadline int64
}

// Run simulates the workload through the configured topology and returns
// the outcome accounting. Deterministic for a fixed (Config, workload).
func Run(cfg Config, workload []Request) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Service == nil || cfg.Service.Len() == 0 {
		return nil, fmt.Errorf("capsim: Config.Service must carry at least one fitted sample")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{Arrived: len(workload), ByOutcome: make(map[string]int)}

	var h eventHeap
	seq := 0
	push := func(at int64, kind, req int) {
		heap.Push(&h, event{at: at, kind: kind, seq: seq, req: req})
		seq++
	}
	for i, r := range workload {
		push(r.ArrivalNS, evArrival, i)
	}

	free := cfg.Concurrency
	var q []waiting

	// serviceDraw is one request's busy time: the slowest of Shards
	// concurrent shard searches, then the merge.
	serviceDraw := func() int64 {
		var s int64
		for k := 0; k < cfg.Shards; k++ {
			if d := cfg.Service.Draw(rng); d > s {
				s = d
			}
		}
		if cfg.Merge != nil && cfg.Merge.Len() > 0 {
			s += cfg.Merge.Draw(rng)
		}
		return s
	}

	// start consumes a token (the caller already decremented free) for a
	// request dequeued at time t after waiting w.
	start := func(t, w, deadline int64) {
		s := serviceDraw()
		if deadline > 0 {
			if rem := deadline - w; s > rem {
				// The engine stops between tasks once the context expires:
				// the token is held to the deadline, the request times out.
				res.ByOutcome[reqtrace.OutcomeTimeout]++
				push(t+rem, evDeparture, -1)
				return
			}
		}
		res.ByOutcome[reqtrace.OutcomeOK]++
		res.OKLatencies = append(res.OKLatencies, w+s)
		push(t+s, evDeparture, -1)
	}

	for h.Len() > 0 {
		e := heap.Pop(&h).(event)
		switch e.kind {
		case evArrival:
			r := workload[e.req]
			if free > 0 {
				free--
				res.WaitNanos = append(res.WaitNanos, 0)
				start(e.at, 0, r.DeadlineNS)
				break
			}
			if len(q) >= cfg.Queue {
				res.ByOutcome[reqtrace.OutcomeShed]++
				break
			}
			q = append(q, waiting{arrival: e.at, deadline: r.DeadlineNS})
		case evDeparture:
			free++
			// Drain the queue head past expired waiters: the daemon checks
			// the deadline at dequeue and answers 503 without running.
			for free > 0 && len(q) > 0 {
				wreq := q[0]
				q = q[1:]
				w := e.at - wreq.arrival
				res.WaitNanos = append(res.WaitNanos, w)
				if wreq.deadline > 0 && w >= wreq.deadline {
					res.ByOutcome[reqtrace.OutcomeTimeout]++
					continue
				}
				free--
				start(e.at, w, wreq.deadline)
			}
		}
	}
	return res, nil
}

// SweepPoint is one arrival rate's predicted operating point.
type SweepPoint struct {
	RatePerSec  float64
	ShedRate    float64
	TimeoutRate float64
	P50NS       int64
	P95NS       int64
	P99NS       int64
}

// Sweep predicts the operating curve: for each arrival rate it synthesizes a
// Poisson workload of n requests with the given deadline and runs the model.
// The per-rate seed derives from Config.Seed so the sweep is reproducible
// yet rates do not share arrival noise.
func Sweep(cfg Config, ratesPerSec []float64, n int, deadlineNS int64) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(ratesPerSec))
	for i, rate := range ratesPerSec {
		wl := PoissonWorkload(n, rate, deadlineNS, cfg.Seed+int64(i)*7919)
		c := cfg
		c.Seed = cfg.Seed + int64(i)*104729
		res, err := Run(c, wl)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{
			RatePerSec:  rate,
			ShedRate:    res.ShedRate(),
			TimeoutRate: res.TimeoutRate(),
			P50NS:       res.LatencyQuantile(0.50),
			P95NS:       res.LatencyQuantile(0.95),
			P99NS:       res.LatencyQuantile(0.99),
		})
	}
	return out, nil
}
