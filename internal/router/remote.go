package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/blast"
	"repro/internal/faultinject"
	"repro/internal/reqtrace"
	"repro/internal/server"
)

// Fault sites of the remote transport, armable through the same chaos
// harness as the engine's and the daemon's (internal/faultinject). Disarmed
// they cost one atomic load per RPC.
var (
	// fiRPC sits before every outbound RPC, probes included: an error fault
	// drops the call (a dead upstream), a delay fault slows it (a congested
	// link).
	fiRPC = faultinject.NewSite("router.rpc")
	// fiRPCBody wraps the response body: a shortread fault truncates it
	// mid-stream (a connection torn under the decoder).
	fiRPCBody = faultinject.NewSite("router.rpcbody")
)

// RemoteOptions has nothing left to tune: every RemoteWorker shares one
// transport and one deadline rule (networkMargin, minTimeout). The empty type
// stays so existing callers of NewRemoteWorker compile.
type RemoteOptions struct{}

// RemoteWorker is a Worker backed by a mublastpd daemon over HTTP: Search
// drives POST /shard/search, HealthCheck (the prober's ejection signal) GET
// /readyz and GET /shard/info, Info (the registration handshake) GET
// /shard/info, and Reload (rolling-reload orchestration) POST /reload.
// Saturation (429 + Retry-After) decodes back into BusyError, so the
// router's shed/failure distinction — and with it the honesty contract —
// survives the network hop.
type RemoteWorker struct {
	name   string
	base   string // http://host:port, no trailing slash
	client *http.Client

	inflight atomic.Int64
	gen      atomic.Int64 // last generation seen from the daemon

	rules atomic.Pointer[handshakeRules] // from Info; nil before it
}

// handshakeRules are the facts of a /shard/info reply a replica must keep
// while it serves: restarted on another build (rules version) or database
// build (fingerprint), its parts no longer merge with its peers'. The
// manifest is not among them: a rolling reload moves it.
type handshakeRules struct {
	version     int
	fingerprint blast.Fingerprint
}

// The shard deadline a RemoteWorker propagates is the request's remaining
// budget minus networkMargin, so the daemon gives up early enough for its
// (partial) answer to travel back, floored at minTimeout: below it the RPC is
// not worth the wire.
const (
	networkMargin = 150 * time.Millisecond
	minTimeout    = 50 * time.Millisecond
)

// remoteTransport carries the RPCs of every RemoteWorker. http.DefaultTransport
// keeps two idle connections per host, so the third concurrent search against
// one replica would dial, and close, a connection per request; a replica
// admits up to its queue bound (server.Config.Queue, 64 unless configured)
// before it sheds, so that many connections to it can be in use at once and
// are worth keeping.
var remoteTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 64
	t.MaxIdleConns = 0 // the per-host bound is the bound
	return t
}()

// NewRemoteWorker wraps the daemon at baseURL (scheme://host:port).
func NewRemoteWorker(name, baseURL string, _ RemoteOptions) *RemoteWorker {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	// No global client timeout: deadlines ride the request contexts.
	return &RemoteWorker{name: name, base: baseURL, client: &http.Client{Transport: remoteTransport}}
}

// Name implements Worker.
func (w *RemoteWorker) Name() string { return w.name }

// Inflight implements Worker.
func (w *RemoteWorker) Inflight() int64 { return w.inflight.Load() }

// Weight implements Worker: every replica counts as one.
func (w *RemoteWorker) Weight() float64 { return 1 }

// BaseURL returns the daemon address the worker drives.
func (w *RemoteWorker) BaseURL() string { return w.base }

// Generation returns the last db_generation the daemon reported (0 before
// any contact).
func (w *RemoteWorker) Generation() int64 { return w.gen.Load() }

// do sends one JSON RPC and returns the response. The caller owns the body.
func (w *RemoteWorker) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	if err := fiRPC.Err(); err != nil {
		return nil, fmt.Errorf("router: rpc to %s%s: %w", w.base, path, err)
	}
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the trace context so the daemon's edge span stitches under
	// this hop's span and both tiers log one request ID.
	rid, tid := reqtrace.IDsFromContext(ctx)
	reqtrace.Inject(req.Header, rid, tid, reqtrace.SpanFromContext(ctx))
	return w.client.Do(req)
}

// errorBody extracts the daemon's error message (bounded) for diagnostics.
func errorBody(resp *http.Response) string {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	return string(bytes.TrimSpace(raw))
}

// Search implements Worker against POST /shard/search. The propagated
// deadline is the context's remaining budget minus networkMargin (floored at
// minTimeout), so the daemon gives up in time for its partial result to make
// it back instead of burning the whole budget upstream.
func (w *RemoteWorker) Search(ctx context.Context, queries []string, shard, numShards int) (*blast.ShardResult, error) {
	w.inflight.Add(1)
	defer w.inflight.Add(-1)

	var timeoutMS int64
	if dl, ok := ctx.Deadline(); ok {
		budget := max(time.Until(dl)-networkMargin, minTimeout)
		timeoutMS = budget.Milliseconds()
		if timeoutMS < 1 {
			timeoutMS = 1
		}
	}
	resp, err := w.do(ctx, http.MethodPost, "/shard/search", server.ShardSearchRequest{
		Queries: queries, Shard: shard, NumShards: numShards, TimeoutMS: timeoutMS,
	})
	if err != nil {
		return nil, fmt.Errorf("router: worker %s: %w", w.name, err)
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK:
		// fall through to decode
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		after := time.Second
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			after = time.Duration(s) * time.Second
		}
		return nil, &BusyError{Worker: w.name, RetryAfter: after}
	default:
		return nil, fmt.Errorf("router: worker %s: /shard/search status %d: %s",
			w.name, resp.StatusCode, errorBody(resp))
	}

	var sr server.ShardSearchResponse
	if err := json.NewDecoder(fiRPCBody.Reader(resp.Body)).Decode(&sr); err != nil {
		return nil, fmt.Errorf("router: worker %s: decoding shard result: %w", w.name, err)
	}
	if sr.Result == nil {
		return nil, fmt.Errorf("router: worker %s: response carries no shard result", w.name)
	}
	w.gen.Store(sr.Generation)
	part, err := blast.ImportShardResult(sr.Result)
	if err != nil {
		return nil, fmt.Errorf("router: worker %s: %w", w.name, err)
	}
	return part, nil
}

// HealthCheck implements HealthChecker: nil while GET /readyz answers 200
// and, once the handshake has run, GET /shard/info reports the rules version
// and fingerprint the handshake did; an error (the prober's ejection signal)
// otherwise. A replica restarted on other rules stays ejected until it
// reports the handshake's again.
func (w *RemoteWorker) HealthCheck(ctx context.Context) error {
	if err := w.probe(ctx, "/readyz", nil); err != nil {
		return err
	}
	want := w.rules.Load()
	if want == nil {
		return nil
	}
	var info server.ShardInfoResponse
	if err := w.probe(ctx, "/shard/info", &info); err != nil {
		return err
	}
	if info.RulesVersion != want.version || info.Fingerprint != want.fingerprint {
		return fmt.Errorf("router: worker %s now searches by rules version %d, fingerprint %+v; its handshake reported %d, %+v",
			w.name, info.RulesVersion, info.Fingerprint, want.version, want.fingerprint)
	}
	return nil
}

// probe GETs one of the daemon's status paths through do, so the transport
// fault sites and the trace headers reach it as they reach a search, and,
// when into is non-nil, decodes the reply into it: nil on 200, an error
// otherwise.
func (w *RemoteWorker) probe(ctx context.Context, path string, into any) error {
	resp, err := w.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return fmt.Errorf("router: worker %s unreachable: %w", w.name, err)
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router: worker %s not ready: %s status %d", w.name, path, resp.StatusCode)
	}
	if into != nil {
		if err := json.NewDecoder(fiRPCBody.Reader(resp.Body)).Decode(into); err != nil {
			return fmt.Errorf("router: worker %s: decoding %s: %w", w.name, path, err)
		}
	}
	return nil
}

// Info runs the registration handshake against GET /shard/info, and
// remembers the rules version and fingerprint the daemon reported for
// HealthCheck to hold it to.
func (w *RemoteWorker) Info(ctx context.Context) (*server.ShardInfoResponse, error) {
	resp, err := w.do(ctx, http.MethodGet, "/shard/info", nil)
	if err != nil {
		return nil, fmt.Errorf("router: worker %s: %w", w.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("router: worker %s: /shard/info status %d: %s",
			w.name, resp.StatusCode, errorBody(resp))
	}
	var info server.ShardInfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("router: worker %s: decoding /shard/info: %w", w.name, err)
	}
	w.gen.Store(info.Generation)
	w.rules.Store(&handshakeRules{version: info.RulesVersion, fingerprint: info.Fingerprint})
	return &info, nil
}

// Reload implements Reloader against the daemon's POST /reload: the daemon
// opens the candidate and swaps it in, or refuses it (422 for a corrupt or
// mismatched candidate) with the old generation still serving.
func (w *RemoteWorker) Reload(ctx context.Context, path string) error {
	resp, err := w.do(ctx, http.MethodPost, "/reload", server.ReloadRequest{Path: path})
	if err != nil {
		return fmt.Errorf("router: worker %s: %w", w.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router: worker %s: /reload status %d: %s",
			w.name, resp.StatusCode, errorBody(resp))
	}
	var rr server.ReloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return fmt.Errorf("router: worker %s: decoding /reload: %w", w.name, err)
	}
	w.gen.Store(rr.Generation)
	return nil
}

// VerifyRemoteTopology runs the coherence handshake across a remote fleet:
// every replica's /shard/info reply is gathered and the set is held to
// blast.VerifyTopology — one fingerprint, one rules version, one E-value
// cutoff and hit cap, one global search space, replicas of a shard on the
// same slice and manifest commit, slices tiling the logical database
// round-robin. It returns the agreed fingerprint and global sequence count.
func VerifyRemoteTopology(ctx context.Context, shards [][]*RemoteWorker) (*blast.Fingerprint, int64, error) {
	facts := make([][]blast.ReplicaFacts, len(shards))
	for s, reps := range shards {
		for _, w := range reps {
			info, err := w.Info(ctx)
			if err != nil {
				return nil, 0, fmt.Errorf("router: shard %d replica %s: handshake: %w", s, w.Name(), err)
			}
			facts[s] = append(facts[s], blast.ReplicaFacts{
				Name: w.Name(), Fingerprint: info.Fingerprint, RulesVersion: info.RulesVersion,
				Sequences: info.Sequences, TotalResidues: info.TotalResidues,
				GlobalSequences: info.GlobalSequences, GlobalResidues: info.GlobalResidues,
				EValueCutoff: info.EValueCutoff, MaxResults: info.MaxResults,
				ManifestSeq: info.ManifestSeq, ManifestHash: info.ManifestHash,
			})
		}
	}
	fp, globalSeqs, _, err := blast.VerifyTopology(facts)
	if err != nil {
		return nil, 0, fmt.Errorf("router: %w", err)
	}
	return &fp, globalSeqs, nil
}
