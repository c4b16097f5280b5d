package router

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/blast"
	"repro/internal/obs"
)

// healthStub is a stubWorker with a toggleable health probe.
type healthStub struct {
	stubWorker
	down   atomic.Bool
	served atomic.Int64
}

func (w *healthStub) HealthCheck(context.Context) error {
	if w.down.Load() {
		return errors.New("probe: down")
	}
	return nil
}

func newTestReplica(w Worker, cfg ResilienceConfig) (*replica, *obs.RouterMetrics) {
	met := obs.NewRouterMetrics(obs.NewRegistry())
	var ej atomic.Int64
	return newReplica(w, cfg.withDefaults(), met, &ej, 1), met
}

// TestBreakerConsecutiveTrip: N consecutive request-path failures open the
// breaker; the cooldown admits exactly one half-open trial, and the trial's
// outcome decides reopen vs close.
func TestBreakerConsecutiveTrip(t *testing.T) {
	r, met := newTestReplica(&stubWorker{name: "w"}, ResilienceConfig{
		BreakerFailures: 3, BreakerCooldown: 20 * time.Millisecond,
	})
	now := time.Now()
	for i := 0; i < 2; i++ {
		r.onResult(outcomeFail)
		if !r.eligibleHint(now) {
			t.Fatalf("breaker tripped after %d failures, threshold is 3", i+1)
		}
	}
	r.onResult(outcomeFail)
	if r.eligibleHint(time.Now()) {
		t.Fatal("breaker still admits traffic after 3 consecutive failures")
	}
	if met.BreakerOpens.Value() != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", met.BreakerOpens.Value())
	}
	if st := r.snapshot(); st.Breaker != "open" {
		t.Fatalf("snapshot breaker %q, want open", st.Breaker)
	}

	// Past the cooldown exactly one trial gets through.
	later := time.Now().Add(25 * time.Millisecond)
	if !r.tryAcquire(later) {
		t.Fatal("cooldown elapsed but the trial was refused")
	}
	if r.tryAcquire(later) {
		t.Fatal("second concurrent half-open trial admitted")
	}
	// Trial fails: reopen, nothing admitted before the next cooldown.
	r.onResult(outcomeFail)
	if met.BreakerOpens.Value() != 2 {
		t.Fatalf("BreakerOpens = %d after a failed trial, want 2", met.BreakerOpens.Value())
	}
	if r.eligibleHint(time.Now()) {
		t.Fatal("breaker admits traffic right after a failed trial")
	}

	// Next trial succeeds: closed, traffic flows.
	again := time.Now().Add(25 * time.Millisecond)
	if !r.tryAcquire(again) {
		t.Fatal("post-reopen trial refused after cooldown")
	}
	r.onResult(outcomeOK)
	if met.BreakerCloses.Value() != 1 {
		t.Fatalf("BreakerCloses = %d, want 1", met.BreakerCloses.Value())
	}
	if !r.eligibleHint(time.Now()) || !r.tryAcquire(time.Now()) {
		t.Fatal("closed breaker must admit traffic freely")
	}
}

// TestBreakerErrorRateTrip: an error rate over the outcome window trips the
// breaker even without a consecutive run.
func TestBreakerErrorRateTrip(t *testing.T) {
	r, met := newTestReplica(&stubWorker{name: "w"}, ResilienceConfig{
		BreakerFailures: 100, BreakerWindow: 4, BreakerErrorRate: 0.5,
	})
	for _, o := range []int{outcomeOK, outcomeFail, outcomeOK, outcomeFail} {
		r.onResult(o)
	}
	if r.eligibleHint(time.Now()) {
		t.Fatal("breaker ignored a 50% failure rate over a full window")
	}
	if met.BreakerOpens.Value() != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", met.BreakerOpens.Value())
	}
}

// TestBreakerShedsAndCancelsAreNeutral pins the overload firewall: replica
// backpressure (sheds) and cancelled attempts must never trip the breaker —
// ejecting a replica *because* it is protecting itself would convert overload
// into capacity loss.
func TestBreakerShedsAndCancelsAreNeutral(t *testing.T) {
	r, met := newTestReplica(&stubWorker{name: "w"}, ResilienceConfig{BreakerFailures: 2, BreakerWindow: 4})
	for i := 0; i < 20; i++ {
		r.onResult(outcomeShed)
		r.onResult(outcomeNeutral)
	}
	if !r.eligibleHint(time.Now()) {
		t.Fatal("sheds/cancels tripped the breaker")
	}
	if met.BreakerOpens.Value() != 0 {
		t.Fatalf("BreakerOpens = %d, want 0", met.BreakerOpens.Value())
	}
}

// TestEjectionReadmissionBackoff drives one replica's probe lifecycle with a
// synthetic clock: ejection on the first failed probe, readmission probes on
// a doubling capped backoff whose jitter never lands later than the nominal
// bound, and a clean breaker on readmission.
func TestEjectionReadmissionBackoff(t *testing.T) {
	w := &healthStub{stubWorker: stubWorker{name: "w"}}
	met := obs.NewRouterMetrics(obs.NewRegistry())
	var ej atomic.Int64
	cfg := ResilienceConfig{ReadmitBackoff: 100 * time.Millisecond, ReadmitBackoffMax: 150 * time.Millisecond}.withDefaults()
	r := newReplica(w, cfg, met, &ej, 1)
	ctx := context.Background()
	now := time.Now()

	w.down.Store(true)
	r.probe(ctx, now)
	if r.healthy() {
		t.Fatal("failed probe did not eject")
	}
	if met.Ejections.Value() != 1 || ej.Load() != 1 {
		t.Fatalf("ejections = %d / count %d, want 1/1", met.Ejections.Value(), ej.Load())
	}
	r.mu.Lock()
	next := r.nextProbe
	r.mu.Unlock()
	if next.Before(now.Add(50*time.Millisecond)) || next.After(now.Add(100*time.Millisecond)) {
		t.Fatalf("first readmission probe at +%v, want within [backoff/2, backoff] = [50ms, 100ms]", next.Sub(now))
	}

	// Before nextProbe the probe is a no-op (no extra ejection counted).
	r.probe(ctx, now.Add(40*time.Millisecond))
	if met.Ejections.Value() != 1 {
		t.Fatal("early re-probe re-ejected an already ejected replica")
	}

	// Still down at the scheduled probe: backoff doubles, capped at the max.
	r.probe(ctx, now.Add(100*time.Millisecond))
	r.mu.Lock()
	backoff := r.backoff
	r.mu.Unlock()
	if backoff != 150*time.Millisecond {
		t.Fatalf("backoff after second failure = %v, want the 150ms cap", backoff)
	}

	// Recovery: the probe on schedule readmits with a reset breaker.
	w.down.Store(false)
	r.onResult(outcomeFail) // stale failure while ejected must not survive readmission
	r.probe(ctx, now.Add(300*time.Millisecond))
	if !r.healthy() {
		t.Fatal("recovered probe did not readmit")
	}
	if met.Readmissions.Value() != 1 || ej.Load() != 0 {
		t.Fatalf("readmissions = %d / count %d, want 1/0", met.Readmissions.Value(), ej.Load())
	}
	if st := r.snapshot(); st.Breaker != "closed" {
		t.Fatalf("breaker %q after readmission, want closed (reset)", st.Breaker)
	}
}

// countingDelegate wraps a real shard search and counts invocations.
func countingDelegate(name string, sd *blast.Database) *healthStub {
	w := &healthStub{}
	w.stubWorker = stubWorker{name: name, search: func(ctx context.Context, queries []string, shard, numShards int) (*blast.ShardResult, error) {
		w.served.Add(1)
		return sd.SearchShardBatchCtx(ctx, queries, shard, numShards)
	}}
	return w
}

// TestReplicaFlapConvergence is the satellite-4 pin, run under -race by `make
// race`: a replica whose probe flaps is never selected while ejected, the
// fleet keeps serving complete results from the survivor, and once the probe
// recovers the replica re-enters rotation within the readmission backoff
// bound.
func TestReplicaFlapConvergence(t *testing.T) {
	_, shards, queries := fixture(t)
	a := countingDelegate("a", shards[0])
	b := countingDelegate("b", shards[0])
	rt, err := New([][]Worker{{a, b}}, Options{
		Registry: obs.NewRegistry(),
		Resilience: ResilienceConfig{
			ProbeInterval:  2 * time.Millisecond,
			ReadmitBackoff: 10 * time.Millisecond, ReadmitBackoffMax: 40 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()

	waitState := func(wantEjected bool, within time.Duration, what string) {
		t.Helper()
		deadline := time.Now().Add(within)
		for {
			if rt.ReplicaStates()[0][1].Ejected == wantEjected {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica b did not become ejected=%v within %v (%s)", wantEjected, within, what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	b.down.Store(true)
	waitState(true, 2*time.Second, "ejection after probe failure")

	// While ejected, b must never be selected; every search still completes
	// from a alone.
	b.served.Store(0)
	for i := 0; i < 30; i++ {
		br, rep, err := rt.Search(context.Background(), queries[:1])
		if err != nil {
			t.Fatalf("search %d with one replica ejected: %v", i, err)
		}
		if rep.Sheds() != 0 || rep.Failed() != 0 || !br.Completed[0] {
			t.Fatalf("search %d degraded despite a healthy survivor: %+v", i, rep.Shards)
		}
	}
	if n := b.served.Load(); n != 0 {
		t.Fatalf("ejected replica served %d searches; ejection must remove it from rotation", n)
	}

	// Recovery: readmission within the backoff bound (jitter never exceeds
	// the nominal backoff, so max-backoff plus a probe interval plus generous
	// scheduler slack bounds convergence).
	b.down.Store(false)
	waitState(false, 2*time.Second, "readmission after probe recovery")

	// Back in rotation: round-robin reaches b again.
	for i := 0; i < 10 && b.served.Load() == 0; i++ {
		if _, _, err := rt.Search(context.Background(), queries[:1]); err != nil {
			t.Fatal(err)
		}
	}
	if b.served.Load() == 0 {
		t.Fatal("readmitted replica never selected again")
	}
}

// TestRetryBudgetBoundsAttempts: with every replica failing, one request
// spends exactly primary + budget attempts on a shard, then stops with the
// budget-dry metric stamped — bounded amplification under correlated failure.
func TestRetryBudgetBoundsAttempts(t *testing.T) {
	_, _, queries := fixture(t)
	boom := func(name string) Worker {
		return &stubWorker{name: name, search: func(context.Context, []string, int, int) (*blast.ShardResult, error) {
			return nil, errors.New("replica down")
		}}
	}
	rt, err := New([][]Worker{{boom("a"), boom("b"), boom("c")}}, Options{
		Registry: obs.NewRegistry(),
		Resilience: ResilienceConfig{
			ProbeInterval: -1, BreakerFailures: -1,
			RetryBudget: 2, RetryBackoff: time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := rt.Search(context.Background(), queries)
	if !errors.Is(err, ErrAllShardsUnavailable) {
		t.Fatalf("err %v, want ErrAllShardsUnavailable", err)
	}
	if got := rep.Shards[0].Attempts; got != 3 {
		t.Fatalf("attempts = %d, want 3 (primary + budget of 2)", got)
	}
	if got := rt.met.Retries.Value(); got != 2 {
		t.Fatalf("Retries = %d, want 2", got)
	}
	if rt.met.RetryBudgetDry.Value() == 0 {
		t.Fatal("budget exhaustion not stamped in RetryBudgetDry")
	}
	if got := rt.met.ShardSearches.Value(); got != 3 {
		t.Fatalf("ShardSearches = %d, want 3", got)
	}
}

// TestRetryBudgetSharedAcrossShards: the budget is per request, not per
// shard — total attempts across a multi-shard scatter stay within fanout +
// budget no matter how the shards race for it.
func TestRetryBudgetSharedAcrossShards(t *testing.T) {
	_, _, queries := fixture(t)
	boom := func(name string) Worker {
		return &stubWorker{name: name, search: func(context.Context, []string, int, int) (*blast.ShardResult, error) {
			return nil, errors.New("replica down")
		}}
	}
	rt, err := New([][]Worker{
		{boom("a0"), boom("a1"), boom("a2")},
		{boom("b0"), boom("b1"), boom("b2")},
	}, Options{
		Registry: obs.NewRegistry(),
		Resilience: ResilienceConfig{
			ProbeInterval: -1, BreakerFailures: -1,
			RetryBudget: 2, RetryBackoff: time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, _ := rt.Search(context.Background(), queries)
	total := 0
	for _, st := range rep.Shards {
		total += st.Attempts
	}
	if total > 4 {
		t.Fatalf("total attempts %d exceed fanout 2 + budget 2", total)
	}
	if total < 2 {
		t.Fatalf("total attempts %d below fanout; every shard gets its primary", total)
	}
}

// TestShedRetriesOnlyOnDifferentReplica pins the anti-amplification rule: a
// shed is retried only where different capacity exists — re-asking the
// replica that just declared itself saturated would feed the overload.
func TestShedRetriesOnlyOnDifferentReplica(t *testing.T) {
	_, shards, queries := fixture(t)

	t.Run("sole replica: shed stands, no retry", func(t *testing.T) {
		var calls atomic.Int64
		busy := &stubWorker{name: "busy", search: func(context.Context, []string, int, int) (*blast.ShardResult, error) {
			calls.Add(1)
			return nil, &BusyError{Worker: "busy", RetryAfter: 7 * time.Second}
		}}
		rt, err := New([][]Worker{{busy}}, Options{Registry: obs.NewRegistry(),
			Resilience: ResilienceConfig{ProbeInterval: -1, RetryBudget: 2, RetryBackoff: time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := rt.Search(context.Background(), queries)
		if !errors.Is(err, ErrAllShardsUnavailable) {
			t.Fatalf("err %v, want ErrAllShardsUnavailable", err)
		}
		if calls.Load() != 1 || rep.Shards[0].Attempts != 1 {
			t.Fatalf("saturated sole replica asked %d times (attempts %d), want exactly 1", calls.Load(), rep.Shards[0].Attempts)
		}
		if !rep.Shards[0].Shed || rep.RetryAfter != 7*time.Second {
			t.Fatalf("shed outcome lost: %+v", rep.Shards[0])
		}
	})

	t.Run("second replica: shed retried there", func(t *testing.T) {
		busy := &stubWorker{name: "busy", search: func(context.Context, []string, int, int) (*blast.ShardResult, error) {
			return nil, &BusyError{Worker: "busy", RetryAfter: time.Second}
		}}
		rt, err := New([][]Worker{{busy, delegate("ok", shards[0])}}, Options{Registry: obs.NewRegistry(),
			Resilience: ResilienceConfig{ProbeInterval: -1, RetryBudget: 2, RetryBackoff: time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		br, rep, err := rt.Search(context.Background(), queries)
		if err != nil {
			t.Fatal(err)
		}
		st := rep.Shards[0]
		if !st.OK || st.Worker != "ok" || st.Attempts != 2 {
			t.Fatalf("shed not recovered on the second replica: %+v", st)
		}
		if !br.Completed[0] {
			t.Fatal("retry succeeded but the query stayed incomplete")
		}
		if rt.met.Retries.Value() != 1 {
			t.Fatalf("Retries = %d, want 1", rt.met.Retries.Value())
		}
	})
}

// TestFailureRetriesSameSoleReplica: a transient failure (unlike a shed) may
// re-try the only replica — there is no overload to amplify.
func TestFailureRetriesSameSoleReplica(t *testing.T) {
	_, shards, queries := fixture(t)
	var calls atomic.Int64
	flaky := &stubWorker{name: "flaky", search: func(ctx context.Context, qs []string, shard, numShards int) (*blast.ShardResult, error) {
		if calls.Add(1) <= 2 {
			return nil, errors.New("transient")
		}
		return shards[0].SearchShardBatchCtx(ctx, qs, shard, numShards)
	}}
	rt, err := New([][]Worker{{flaky}}, Options{Registry: obs.NewRegistry(),
		Resilience: ResilienceConfig{ProbeInterval: -1, RetryBudget: 2, RetryBackoff: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	br, rep, err := rt.Search(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if st := rep.Shards[0]; !st.OK || st.Attempts != 3 {
		t.Fatalf("flaky sole replica: %+v, want OK after 3 attempts", st)
	}
	if !br.Completed[0] {
		t.Fatal("recovered retry left the query incomplete")
	}
}

// reloadStub is a Worker with a scriptable Reloader surface.
type reloadStub struct {
	stubWorker
	err   error    // what the daemon answers: nil swapped, else refused
	calls []string // the paths it was asked to swap in, in order
}

func (w *reloadStub) Reload(_ context.Context, path string) error {
	w.calls = append(w.calls, path)
	return w.err
}

func newReloadStub(name string) *reloadStub {
	return &reloadStub{stubWorker: stubWorker{name: name}}
}

// TestRollingReload covers the orchestrator: one reload per replica, a
// replica refusing its candidate failing only its own entry, and the rest of
// the fleet still rolling.
func TestRollingReload(t *testing.T) {
	a0, a1 := newReloadStub("a0"), newReloadStub("a1")
	b0 := newReloadStub("b0")
	b0.err = errors.New("corrupt candidate")
	b1 := newReloadStub("b1")
	rt, err := New([][]Worker{{a0, a1}, {b0, b1}}, Options{Registry: obs.NewRegistry(),
		Resilience: ResilienceConfig{ProbeInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	resp := rt.RollingReload(context.Background(), []string{"newA", "newB"}, false)
	if resp.OK {
		t.Fatal("roll reported OK despite b0's refused candidate")
	}
	if len(resp.Replicas) != 4 {
		t.Fatalf("%d replica entries, want 4", len(resp.Replicas))
	}
	for w, want := range map[*reloadStub]string{a0: "newA", a1: "newA", b0: "newB", b1: "newB"} {
		if len(w.calls) != 1 || w.calls[0] != want {
			t.Fatalf("%s calls %v, want one reload of %s", w.name, w.calls, want)
		}
	}
	var b0Entry *ReplicaReloadWire
	for i := range resp.Replicas {
		if resp.Replicas[i].Worker == "b0" {
			b0Entry = &resp.Replicas[i]
		}
	}
	if b0Entry == nil || b0Entry.OK || !strings.Contains(b0Entry.Error, "corrupt candidate") {
		t.Fatalf("b0 entry %+v, want a failed entry carrying the refusal", b0Entry)
	}
}

// TestRollingReloadSpares LastHealthyReplica: the orchestrator refuses to
// swap a shard's only healthy replica — a reload gone wrong there would take
// the whole shard out — unless forced.
func TestRollingReloadLastHealthyReplica(t *testing.T) {
	sole := newReloadStub("sole")
	rt, err := New([][]Worker{{sole}}, Options{Registry: obs.NewRegistry(),
		Resilience: ResilienceConfig{ProbeInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	resp := rt.RollingReload(context.Background(), []string{"new"}, false)
	if resp.OK || len(sole.calls) != 0 {
		t.Fatalf("last healthy replica reloaded without force: ok=%v calls=%v", resp.OK, sole.calls)
	}
	resp = rt.RollingReload(context.Background(), []string{"new"}, true)
	if !resp.OK || len(sole.calls) != 1 || sole.calls[0] != "new" {
		t.Fatalf("forced roll: ok=%v calls=%v, want the swap to run", resp.OK, sole.calls)
	}
}

// TestRollingReloadNonReloadable: a worker without the Reloader surface fails
// its entry instead of being silently skipped.
func TestRollingReloadNonReloadable(t *testing.T) {
	plain := &stubWorker{name: "plain"}
	rt, err := New([][]Worker{{plain, newReloadStub("rl")}}, Options{Registry: obs.NewRegistry(),
		Resilience: ResilienceConfig{ProbeInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	resp := rt.RollingReload(context.Background(), []string{"new"}, false)
	if resp.OK {
		t.Fatal("roll OK despite a non-reloadable worker")
	}
	if resp.Replicas[0].OK || resp.Replicas[0].Error == "" {
		t.Fatalf("non-reloadable entry %+v, want a failure", resp.Replicas[0])
	}
	if !resp.Replicas[1].OK {
		t.Fatalf("reloadable peer %+v, want rolled", resp.Replicas[1])
	}
}

// TestReadyzRequiresEveryShardServable is the satellite-3 pin: killing every
// replica of one shard flips the frontend's /readyz to 503 (the fleet cannot
// answer a full scatter), and recovery flips it back.
func TestReadyzRequiresEveryShardServable(t *testing.T) {
	_, shards, _ := fixture(t)
	good := countingDelegate("good", shards[0])
	bad0 := countingDelegate("bad0", shards[1])
	bad1 := countingDelegate("bad1", shards[1])
	rt, err := New([][]Worker{{good}, {bad0, bad1}}, Options{Registry: obs.NewRegistry(),
		Resilience: ResilienceConfig{ProbeInterval: -1, ReadmitBackoff: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	fe := NewFrontend(rt, FrontendConfig{Registry: obs.NewRegistry()})
	h := fe.Handler()
	getReady := func() int {
		req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := getReady(); code != http.StatusOK {
		t.Fatalf("/readyz = %d on a healthy fleet, want 200", code)
	}

	// Kill both replicas of shard 1; one probe cycle ejects them.
	bad0.down.Store(true)
	bad1.down.Store(true)
	rt.probeAll(context.Background(), time.Now())
	if err := rt.HealthErr(); err == nil || !strings.Contains(err.Error(), "[1]") {
		t.Fatalf("HealthErr = %v, want an error naming shard 1", err)
	}
	if code := getReady(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with shard 1 starved, want 503", code)
	}
	// Shard 0 still healthy: the starved shard, not the fleet, is the problem.
	if rt.HealthyReplicas(0) != 1 || rt.HealthyReplicas(1) != 0 {
		t.Fatalf("healthy replicas %d/%d, want 1/0", rt.HealthyReplicas(0), rt.HealthyReplicas(1))
	}

	// One replica recovering is enough to serve scatters again.
	bad0.down.Store(false)
	rt.probeAll(context.Background(), time.Now().Add(time.Second))
	if err := rt.HealthErr(); err != nil {
		t.Fatalf("HealthErr after recovery: %v", err)
	}
	if code := getReady(); code != http.StatusOK {
		t.Fatalf("/readyz = %d after recovery, want 200", code)
	}
}
