package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as numpy's default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// supported reports whether n samples carry the q-quantile under the rule
// "at least ten samples beyond it": a p95 needs 200 samples, a p99 1000.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9 // 1-0.9 is a little under 0.1
}

// sample is one operation a load generator completed.
type sample struct {
	idx    int           // which distinct request it was
	lat    time.Duration // wait of the caller (from the due time in an open loop)
	status int
	body   []byte
}

// segment is one equal slice of a timed phase.
type segment struct {
	elapsed time.Duration
	share   float64 // of elapsed the guest was not stolen from, see clock.go
	samples []sample
}

// segStats is what one segment contributes to the reducer.
type segStats struct {
	qps, p50 float64 // 1/s, ms
}

// stats reads the segment on the unstolen clock: a request cannot be
// timed on it alone (the accounting ticks every 10 ms), so the segment's
// median is scaled by the segment's share.
func (s segment) stats() segStats {
	return segStats{
		qps: float64(len(s.samples)) / (s.elapsed.Seconds() * s.share),
		p50: quantile(latenciesMS(s.samples), 0.50) * s.share,
	}
}

func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.lat)
	}
	return out
}

// reduceSegments is the gated reducer: each figure is the median over
// segments of the per-segment figure, so one disturbed segment out of ten
// cannot move it.
func reduceSegments(segs []segment) segStats {
	var q, p []float64
	for _, s := range segs {
		st := s.stats()
		q, p = append(q, st.qps), append(p, st.p50)
	}
	return segStats{qps: median(q), p50: median(p)}
}

// at moves the figures to a host speed times as fast (see calib.go).
func (s segStats) at(speed float64) segStats {
	return segStats{qps: s.qps / speed, p50: s.p50 * speed}
}

// tail is the ungated tail of a phase: the q-quantile of all its samples
// pooled, and whether there are enough of them to carry it.
func tail(segs []segment, q float64) (float64, bool) {
	var all []float64
	for _, s := range segs {
		all = append(all, latenciesMS(s.samples)...)
	}
	return quantile(all, q), supported(len(all), q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
