package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/blast"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
}

// A percentile is reported as carried only with ten samples beyond it.
func TestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{199, 0.95, false}, {200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true}, {100, 0.90, true}, {72, 0.90, false}, {20, 0.5, true}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func seg(elapsed time.Duration, lats ...time.Duration) segment {
	s := segment{elapsed: elapsed, share: 1}
	for _, l := range lats {
		s.samples = append(s.samples, sample{lat: l, status: 200})
	}
	return s
}

// One disturbed segment must not move the reduced figures.
func TestReduceSegments(t *testing.T) {
	quiet := func() segment {
		return seg(time.Second, 10*time.Millisecond, 10*time.Millisecond, 12*time.Millisecond, 10*time.Millisecond)
	}
	segs := []segment{quiet(), quiet(), seg(4*time.Second, 900*time.Millisecond, 800*time.Millisecond), quiet(), quiet()}
	got := reduceSegments(segs)
	if got.qps != 4 || got.p50 != 10 {
		t.Errorf("reduced to %+v, want 4 q/s and a 10 ms median", got)
	}
	if p, ok := tail(segs, 0.95); ok || p < 800 {
		t.Errorf("pooled p95 = %v carried=%v over 18 samples, want the disturbed tail and not carried", p, ok)
	}
}

// fakeClock advances only when the loop sleeps or a request takes time.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// Requests that queue behind a slow one are timed from when they were due.
func TestOpenLoopAccounting(t *testing.T) {
	clk := &fakeClock{}
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond}
	var order []int
	got := runOpen(clk, due, 1, func(i int) {
		order = append(order, i)
		clk.now += 25 * time.Millisecond
	})
	want := []openResult{
		{latency: 25 * time.Millisecond, late: 0},
		{latency: 40 * time.Millisecond, late: 15 * time.Millisecond},
		{latency: 55 * time.Millisecond, late: 30 * time.Millisecond},
		{latency: 25 * time.Millisecond, late: 0}, // the backlog has drained
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("open loop accounted %v, want %v", got, want)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Errorf("requests went out in order %v", order)
	}
}

// Self time is the span minus the union of its children, clipped to it.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "d", Start: 10, End: 20},
		{ID: 6, Parent: 3, Name: "e", Start: 35, End: 40}, // inside b, which a also covers
	}
	want := map[int]int64{1: 100 - 60 - 10, 2: 30, 3: 35, 4: 30, 5: 10, 6: 5}
	if got := selfNanos(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

type fakeWorker struct {
	res *blast.ShardResult
	err error
}

func (fakeWorker) Name() string    { return "fake" }
func (fakeWorker) Inflight() int64 { return 3 }
func (fakeWorker) Weight() float64 { return 2.5 }
func (f fakeWorker) Search(context.Context, []string, int, int) (*blast.ShardResult, error) {
	return f.res, f.err
}

// The timing decorator hands results and errors through untouched and logs
// the call under the request the query belongs to.
func TestTimedWorkerPassesThrough(t *testing.T) {
	boom := errors.New("boom")
	for _, inner := range []fakeWorker{{res: new(blast.ShardResult)}, {err: boom}} {
		log := &rpcLog{index: map[string]int{"MKT": 7}, byReq: map[int][]rpcObs{}}
		w := &timedWorker{Worker: inner, log: log}
		res, err := w.Search(context.Background(), []string{"MKT"}, 1, 2)
		if res != inner.res || err != inner.err {
			t.Errorf("decorator returned (%p, %v), want (%p, %v)", res, err, inner.res, inner.err)
		}
		if w.Name() != "fake" || w.Inflight() != 3 || w.Weight() != 2.5 {
			t.Error("decorator changed Name, Inflight or Weight")
		}
		obs := log.take(7)
		if len(obs) != 1 || obs[0].shard != 1 || obs[0].t1.Before(obs[0].t0) {
			t.Errorf("logged %+v, want one observation of shard 1", obs)
		}
		if len(log.take(7)) != 0 {
			t.Error("take did not forget the observation")
		}
	}
}

func TestInputsDoNotDependOnTheSeedInSize(t *testing.T) {
	if got := sum(uniprotLadder(16)); got < 4500 || got > 6500 {
		t.Errorf("a 16-query mixed batch has %d residues, want about 16 x 355", got)
	}
	l := uniprotLadder(101)
	if l[50] < 285 || l[50] > 300 {
		t.Errorf("ladder median %d, want the uniprot median 292", l[50])
	}
}

// BENCHMARK.json and the tables in main.go must name the same things.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the harness", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%d %s metrics in BENCHMARK.json, %d in the harness", len(got), kind, len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// The unstolen clock: wall time scaled by the share of the CPU time asked
// for that was delivered.
func TestDeliveredShare(t *testing.T) {
	a := parseCPU("cpu  100 0 50 1000 7 1 2 40 0 0")
	b := parseCPU("cpu  400 0 100 1200 9 2 3 160 0 0")
	if a != (cpuTicks{busy: 153, steal: 40}) {
		t.Fatalf("parsed %+v", a)
	}
	// 352 ticks of work done and 120 stolen: 352/472 of what was asked for.
	if got := delivered(a, b); math.Abs(got-352.0/472.0) > 1e-12 {
		t.Errorf("delivered = %v, want %v", got, 352.0/472.0)
	}
	if got := delivered(a, a); got != 1 {
		t.Errorf("an empty interval delivered %v, want 1", got)
	}
	if got := delivered(cpuTicks{}, parseCPU("no such line")); got != 1 {
		t.Errorf("without accounting delivered = %v, want 1", got)
	}
	if got := scale(4*time.Second, 0.75); got != 3*time.Second {
		t.Errorf("4 s at a 0.75 share is %v on the unstolen clock, want 3 s", got)
	}
}

// One hit that only one side reports is odd: counted, and within the budget.
// A changed hit, a repeated hit, another order or a second odd hit fails.
func TestSameHitsAndOddBudget(t *testing.T) {
	e := &env{values: map[string]float64{}, odd: map[string]bool{}}
	if err := e.sameHits([]string{"a", "x", "b", "c"}, []string{"a", "b", "c"}); err != nil {
		t.Errorf("one extra hit is not a difference: %v", err)
	}
	if !reflect.DeepEqual(e.odd, map[string]bool{"x": true}) {
		t.Errorf("odd hits %v, want x", e.odd)
	}
	for name, c := range map[string][2][]string{
		"a changed hit":   {{"a", "x", "b"}, {"a", "y", "b"}},
		"another order":   {{"a", "c", "b"}, {"a", "b", "c"}},
		"a repeated hit":  {{"a", "a", "b"}, {"a", "b"}},
		"a hit each side": {{"a", "b", "x"}, {"y", "a", "b"}},
	} {
		if err := e.sameHits(c[0], c[1]); err == nil {
			t.Errorf("%s passed", name)
		}
	}
	if len(e.odd) != 1 {
		t.Errorf("failed comparisons left odd hits behind: %v", e.odd)
	}
	e.sameHits([]string{"a", "x"}, []string{"a"}) // the same odd hit again is counted once
	if e.settleOdd(); e.failed != 0 || e.values["blast.odd_hits"] != 1 {
		t.Errorf("one odd hit: failed=%d odd=%v, want within the budget", e.failed, e.values["blast.odd_hits"])
	}
	e.sameHits(nil, []string{"z"})
	if e.settleOdd(); e.failed != 2 {
		t.Errorf("two distinct odd hits: failed=%d, want 2", e.failed)
	}
}

func TestCarries(t *testing.T) {
	e := &env{values: map[string]float64{}, odd: map[string]bool{}}
	want := [][]byte{[]byte(`"results":[{"name":"q","query_len":3,"completed":true,"hits":[{"s":1},{"s":2}]}],"stats"`)}
	check := carries(e, want)
	reply := func(hits string) sample {
		return sample{body: []byte(`{"degraded":false,"results":[{"name":"q","query_len":3,"completed":true,"hits":[` + hits + `]}],"stats":{"tasks":1}}`)}
	}
	if err := check(reply(`{"s":1},{"s":2}`)); err != nil || len(e.odd) != 0 {
		t.Errorf("identical reply: %v, odd %v", err, e.odd)
	}
	if err := check(reply(`{"s":1},{"s":9},{"s":2}`)); err != nil || !e.odd[`{"s":9}`] {
		t.Errorf("reply with one more hit: %v, odd %v", err, e.odd)
	}
	if err := check(reply(`{"s":2},{"s":1}`)); err == nil {
		t.Error("reply with the hits swapped passed")
	}
	if err := check(sample{body: []byte(`{"results":[{"completed":false,"hits":[]}],"stats":{}}`)}); err == nil {
		t.Error("incomplete reply passed")
	}
}
