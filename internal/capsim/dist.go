package capsim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/reqtrace"
)

// Dist is an empirical distribution: a draw picks one of the fitted samples
// uniformly (the inverse-CDF of the empirical CDF), so the model reproduces
// the recorded service-time shape — including its tail — without assuming a
// parametric family.
type Dist struct {
	samples []int64 // ascending
}

// NewDist fits an empirical distribution over the samples (a sorted copy is
// kept; the input is not retained). Returns an empty Dist when samples is
// empty — Len tells them apart.
func NewDist(samples []int64) *Dist {
	s := make([]int64, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return &Dist{samples: s}
}

// Constant is the degenerate single-point distribution.
func Constant(ns int64) *Dist { return &Dist{samples: []int64{ns}} }

// Len returns the fitted sample count.
func (d *Dist) Len() int {
	if d == nil {
		return 0
	}
	return len(d.samples)
}

// Draw samples the distribution.
func (d *Dist) Draw(r *rand.Rand) int64 {
	if d.Len() == 0 {
		return 0
	}
	return d.samples[r.Intn(len(d.samples))]
}

// Quantile returns the q-quantile of the fitted samples.
func (d *Dist) Quantile(q float64) int64 {
	if d.Len() == 0 {
		return 0
	}
	return reqtrace.QuantileNanos(d.samples, q)
}

// Mean returns the fitted samples' mean.
func (d *Dist) Mean() float64 {
	if d.Len() == 0 {
		return 0
	}
	var sum float64
	for _, v := range d.samples {
		sum += float64(v)
	}
	return sum / float64(len(d.samples))
}

// FitSpan fits a distribution from the named per-stage duration of every
// record whose outcome is in keep (no keep filter = every record carrying
// the span). This is how the model learns "search" (monolithic service),
// "shard<N>" (per-shard service), or "merge" times from a recorded run. An
// error when no record carries the span — a silent empty fit would make
// every prediction zero.
func FitSpan(recs []*reqtrace.Record, span string, keep ...string) (*Dist, error) {
	want := make(map[string]bool, len(keep))
	for _, o := range keep {
		want[o] = true
	}
	var samples []int64
	for _, r := range recs {
		if len(want) > 0 && !want[r.Outcome] {
			continue
		}
		if v, ok := r.SpanNanos[span]; ok && v > 0 {
			samples = append(samples, v)
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("capsim: no record carries span %q (outcomes %v)", span, keep)
	}
	return NewDist(samples), nil
}

// FitShardService pools the per-shard durations ("shard0", "shard1", ...)
// of completed requests into one per-shard service distribution for the
// scatter model. Falls back to "search" when no shard spans exist (a
// monolithic recording).
func FitShardService(recs []*reqtrace.Record, shards int) (*Dist, error) {
	var samples []int64
	for _, r := range recs {
		if r.Outcome != reqtrace.OutcomeOK {
			continue
		}
		for s := 0; s < shards; s++ {
			if v, ok := r.SpanNanos[fmt.Sprintf("shard%d", s)]; ok && v > 0 {
				samples = append(samples, v)
			}
		}
	}
	if len(samples) > 0 {
		return NewDist(samples), nil
	}
	return FitSpan(recs, "search", reqtrace.OutcomeOK)
}

// WorkloadFromRecords converts a recorded run into the simulator's arrival
// sequence: offsets from the first arrival, deadlines from the records.
// Shed and rejected records still arrive (they loaded the queue in the real
// run and must load the model's).
func WorkloadFromRecords(recs []*reqtrace.Record) []Request {
	if len(recs) == 0 {
		return nil
	}
	base := recs[0].ArrivalUnixNS
	for _, r := range recs {
		if r.ArrivalUnixNS < base {
			base = r.ArrivalUnixNS
		}
	}
	out := make([]Request, len(recs))
	for i, r := range recs {
		out[i] = Request{
			ArrivalNS:  r.ArrivalUnixNS - base,
			DeadlineNS: r.DeadlineMS * 1e6,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ArrivalNS < out[j].ArrivalNS })
	return out
}

// PoissonWorkload synthesizes n arrivals at ratePerSec with exponential
// inter-arrival gaps, every request carrying the same deadline.
// Deterministic for a fixed seed.
func PoissonWorkload(n int, ratePerSec float64, deadlineNS, seed int64) []Request {
	if n <= 0 || ratePerSec <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	gap := float64(1e9) / ratePerSec
	out := make([]Request, n)
	var t float64
	for i := range out {
		out[i] = Request{ArrivalNS: int64(t), DeadlineNS: deadlineNS}
		t += rng.ExpFloat64() * gap
	}
	return out
}
