// The workload replayer: re-issues a traced request stream against a live
// daemon (mublastpd or mublastpr — both speak the same /search wire format)
// with the original inter-arrival timing, open-loop: each request fires at
// its recorded offset whether or not earlier ones have answered, which is
// what makes a replayed overload reproduce the recorded queueing behaviour
// instead of self-throttling it away.
//
// Residues are not stored in traces; the replayer regenerates random
// sequences of the recorded lengths from a fixed seed, so a replay is
// deterministic in everything the serving tier's queueing behaviour depends
// on (arrival times, batch sizes, query lengths, deadlines) without the
// trace having to carry payloads.
package reqtrace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// residueLetters are the 20 standard amino acids — what the generated
// replay queries are drawn from (matches the engine's alphabet).
const residueLetters = "ACDEFGHIKLMNPQRSTVWY"

// synthQuery builds a deterministic random protein sequence of length n.
func synthQuery(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = residueLetters[rng.Intn(len(residueLetters))]
	}
	return string(b)
}

// ReplayConfig tunes a replay run.
type ReplayConfig struct {
	// Target is the daemon base URL, e.g. "http://127.0.0.1:8044".
	Target string
	// Speed scales the recorded inter-arrival gaps: 1 replays in real
	// time, 2 replays twice as fast, 0 means 1.
	Speed float64
	// Seed drives query-residue generation (default 1).
	Seed int64
	// Client is the HTTP client (default http.DefaultClient with no
	// per-request timeout — the daemon's deadline machinery is the thing
	// being measured, a client timeout would distort it).
	Client *http.Client
}

// ReplayOutcome is one replayed request's observed result.
type ReplayOutcome struct {
	RequestID string // X-Request-ID echoed by the daemon
	Status    int
	Outcome   string // Outcome* classification from the status code
	LatencyNS int64  // send to the response's last byte, client-observed
	Err       error  // transport failure (Status 0) or torn body
}

// ReplayResult summarizes a replay run.
type ReplayResult struct {
	Sent      int
	ByOutcome map[string]int
	Outcomes  []ReplayOutcome
	WallNS    int64
}

// ShedRate is the fraction of sent requests answered with a shed.
func (r *ReplayResult) ShedRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.ByOutcome[OutcomeShed]) / float64(r.Sent)
}

// LatencyQuantile returns the q-quantile of client-observed latency over
// completed (OutcomeOK) requests, in nanoseconds; 0 with none.
func (r *ReplayResult) LatencyQuantile(q float64) int64 {
	var lat []int64
	for _, o := range r.Outcomes {
		if o.Outcome == OutcomeOK {
			lat = append(lat, o.LatencyNS)
		}
	}
	return quantileNanos(lat, q)
}

// quantileNanos is the exact ceil-rank q-quantile of v, the element at rank
// ceil(q*n)-1 of a sorted copy; 0 on an empty v.
func quantileNanos(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// outcomeFromStatus classifies an HTTP status into the record vocabulary.
// 503 is "timeout" because that is the daemon's deadline-expired answer;
// transport-level failures are classified by the caller as errors.
func outcomeFromStatus(status int) string {
	switch {
	case status == http.StatusOK:
		return OutcomeOK
	case status == http.StatusTooManyRequests:
		return OutcomeShed
	case status == http.StatusServiceUnavailable:
		return OutcomeTimeout
	case status >= 400 && status < 500:
		return OutcomeRejected
	default:
		return OutcomeError
	}
}

// Replay re-issues records against cfg.Target with the recorded
// inter-arrival gaps. It blocks until every response (or transport error)
// has arrived. ctx cancels the remaining sends (in-flight requests are
// abandoned to their own fate).
func Replay(ctx context.Context, cfg ReplayConfig, records []*Record) (*ReplayResult, error) {
	if cfg.Target == "" {
		return nil, fmt.Errorf("reqtrace: replay needs a target URL")
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("reqtrace: replay needs at least one record")
	}
	speed := cfg.Speed
	if speed <= 0 {
		speed = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}

	// Bodies are built up front (deterministic residues, recorded lengths
	// and deadlines) so the send loop does nothing but pace and fire.
	rng := rand.New(rand.NewSource(seed))
	bodies := make([][]byte, len(records))
	for i, rec := range records {
		type q struct {
			Name     string `json:"name"`
			Residues string `json:"residues"`
		}
		var req struct {
			Queries   []q   `json:"queries"`
			TimeoutMS int64 `json:"timeout_ms,omitempty"`
		}
		for j, n := range rec.QueryLens {
			req.Queries = append(req.Queries, q{
				Name:     fmt.Sprintf("replay-%d-%d", i, j),
				Residues: synthQuery(rng, n),
			})
		}
		req.TimeoutMS = rec.DeadlineMS
		b, err := json.Marshal(&req)
		if err != nil {
			return nil, fmt.Errorf("reqtrace: building replay body %d: %w", i, err)
		}
		bodies[i] = b
	}

	res := &ReplayResult{
		ByOutcome: make(map[string]int),
		Outcomes:  make([]ReplayOutcome, len(records)),
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	base := records[0].ArrivalUnixNS
	for i, rec := range records {
		offset := time.Duration(float64(rec.ArrivalUnixNS-base) / speed)
		if wait := offset - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				res.WallNS = time.Since(start).Nanoseconds()
				wg.Wait()
				return res, ctx.Err()
			}
		}
		wg.Add(1)
		res.Sent++
		go func(i int, body []byte) {
			defer wg.Done()
			out := sendOne(ctx, client, cfg.Target, body)
			mu.Lock()
			res.Outcomes[i] = out
			res.ByOutcome[out.Outcome]++
			mu.Unlock()
		}(i, bodies[i])
	}
	wg.Wait()
	res.WallNS = time.Since(start).Nanoseconds()
	return res, nil
}

func sendOne(ctx context.Context, client *http.Client, target string, body []byte) ReplayOutcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/search", bytes.NewReader(body))
	if err != nil {
		return ReplayOutcome{Outcome: OutcomeError, Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	out := ReplayOutcome{Outcome: OutcomeError}
	sent := time.Now()
	resp, err := client.Do(req)
	if err == nil {
		out.RequestID, out.Status = resp.Header.Get(HeaderRequestID), resp.StatusCode
		// Latency runs to the last byte, and a torn body is an error
		// whatever the status said.
		if _, err = io.Copy(io.Discard, resp.Body); err == nil {
			out.Outcome = outcomeFromStatus(resp.StatusCode)
		}
		resp.Body.Close()
	}
	out.LatencyNS, out.Err = time.Since(sent).Nanoseconds(), err
	return out
}
