package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Load generators. Both live in the daemons' process and talk to them over
// loopback keep-alive connections, at most e.w of them, so that clients and
// engine threads together never ask for more than the host's cores.

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// post sends one JSON request and reads the whole reply. A transport error
// is reported as status 0.
func post(c *http.Client, url string, body []byte) (int, []byte) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	return resp.StatusCode, b
}

// observer is called by a traced load generator after each reply, on the
// caller's goroutine and before its next request, so what it costs shows up
// in the traced run's throughput.
type observer func(idx int, t0, t1 time.Time, body []byte)

// closedSegment is the gated serving load: w callers, each sending the next
// request of the cycle as soon as its last one was answered, for dur. The
// segment ends when the last caller has its answer.
func closedSegment(c *http.Client, url string, bodies [][]byte, next *atomic.Int64, w int, dur time.Duration, obs observer) segment {
	per := make([][]sample, w)
	var wg sync.WaitGroup
	watch := startWatch()
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Since(watch.t0) < dur {
				idx := int(next.Add(1)-1) % len(bodies)
				t0 := time.Now()
				status, body := post(c, url, bodies[idx])
				t1 := time.Now()
				per[k] = append(per[k], sample{idx: idx, lat: t1.Sub(t0), status: status, body: body})
				if obs != nil {
					obs(idx, t0, t1, body)
				}
			}
		}(k)
	}
	wg.Wait()
	var seg segment
	seg.elapsed, seg.share = watch.stop()
	for _, s := range per {
		seg.samples = append(seg.samples, s...)
	}
	return seg
}

// closedPhase runs n closed-loop segments, with a collection and a
// calibration slice before each and a slice after the last, all outside the
// timers, and checks every reply.
func closedPhase(e *env, n int, seg func() segment, check func(sample) error) []segment {
	segs := make([]segment, n)
	for i := range segs {
		runtime.GC()
		e.cal.slice()
		segs[i] = seg()
		checkSamples(e, segs[i].samples, check)
	}
	e.cal.slice()
	return segs
}

// checkSamples counts every sample as attempted and every one that is not a
// correct 200 as failed, then drops the reply bodies.
func checkSamples(e *env, ss []sample, check func(sample) error) {
	for i := range ss {
		e.attempted++
		if ss[i].status != http.StatusOK {
			e.fail(1, "request %d: status %d: %.120s", ss[i].idx, ss[i].status, ss[i].body)
		} else if err := check(ss[i]); err != nil {
			e.fail(1, "request %d: %v", ss[i].idx, err)
		}
		ss[i].body = nil
	}
}

// clock lets the open loop's accounting be tested without waiting.
type clock interface {
	Now() time.Duration // since the start of the run
	SleepUntil(t time.Duration)
}

type wallClock struct{ t0 time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.t0) }
func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// openResult is one request of an open loop: latency runs from the time the
// request was due, not from when a connection was free to send it, so the
// wait a stall imposes on the requests behind it is counted; late is how
// long after its due time it was sent.
type openResult struct {
	latency, late time.Duration
}

// runOpen sends len(due) requests on a fixed schedule over w connections.
// do(i) performs request i and returns when it is answered.
func runOpen(clk clock, due []time.Duration, w int, do func(i int)) []openResult {
	out := make([]openResult, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				clk.SleepUntil(due[i])
				sent := clk.Now()
				do(i)
				out[i] = openResult{latency: clk.Now() - due[i], late: sent - due[i]}
			}
		}()
	}
	wg.Wait()
	return out
}

// poissonSchedule returns the due times of a seeded Poisson process of the
// given rate over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}

// searchBody is the /search request for one named query.
func searchBody(name, residues string) []byte {
	b, err := json.Marshal(server.SearchRequest{Queries: []server.QueryInput{{Name: name, Residues: residues}}})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return b
}

// replyStats pulls the "stats" object out of a /search reply without
// decoding the hits around it; it is the last object with that key and has
// no nested objects.
func replyStats(body []byte) (server.RequestStats, error) {
	var st server.RequestStats
	i := bytes.LastIndex(body, []byte(`"stats":{`))
	if i < 0 {
		return st, fmt.Errorf("reply has no stats")
	}
	obj := body[i+len(`"stats":`):]
	j := bytes.IndexByte(obj, '}')
	if j < 0 {
		return st, fmt.Errorf("reply stats are cut off")
	}
	return st, json.Unmarshal(obj[:j+1], &st)
}
