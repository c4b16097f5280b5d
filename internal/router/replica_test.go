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

// outUntil reads an out replica's return time.
func outUntil(r *replica) time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.until
}

// TestRequestStrikesTakeReplicaOut: maxStrikes consecutive request-path
// failures take the replica out of rotation for the readmission backoff; it
// comes back on probation, where one failure sends it out again with the
// backoff doubled and one success clears strikes and backoff.
func TestRequestStrikesTakeReplicaOut(t *testing.T) {
	r, met := newTestReplica(&stubWorker{name: "w"}, ResilienceConfig{
		ReadmitBackoff: time.Second, ReadmitBackoffMax: time.Minute,
	})
	strikeOut := func(fails int, wantBackoff time.Duration) time.Time {
		t.Helper()
		for i := 0; i < fails-1; i++ {
			r.onResult(outcomeFail)
			if !r.eligible(time.Now()) {
				t.Fatalf("replica out after %d failures, want out at %d", i+1, fails)
			}
		}
		left := time.Now()
		r.onResult(outcomeFail)
		until := outUntil(r)
		if r.eligible(until.Add(-time.Nanosecond)) {
			t.Fatalf("replica still in rotation after %d consecutive failures", fails)
		}
		if d := until.Sub(left); d < wantBackoff/2 || d > wantBackoff+time.Since(left) {
			t.Fatalf("out for %v, want within [backoff/2, backoff] of %v", d, wantBackoff)
		}
		if st := r.snapshot(); !st.Ejected || st.Reason != "requests" {
			t.Fatalf("snapshot %+v, want ejected for requests", st)
		}
		return until
	}

	until := strikeOut(maxStrikes, time.Second)
	if met.Ejections.Value() != 1 {
		t.Fatalf("Ejections = %d, want 1", met.Ejections.Value())
	}
	// A straggler's success while out changes nothing.
	r.onResult(outcomeOK)
	if r.eligible(until.Add(-time.Nanosecond)) {
		t.Fatal("a straggler's result returned the replica early")
	}

	// Backoff run out: back in rotation, on probation.
	if !r.eligible(until) || met.Readmissions.Value() != 1 {
		t.Fatalf("replica not readmitted at its return time (readmissions %d)", met.Readmissions.Value())
	}
	if st := r.snapshot(); st.Ejected || st.Reason != "" {
		t.Fatalf("snapshot %+v after readmission, want in rotation with no reason", st)
	}
	// One failure on probation: out again, backoff doubled.
	until = strikeOut(1, 2*time.Second)
	if met.Ejections.Value() != 2 {
		t.Fatalf("Ejections = %d after a failure on probation, want 2", met.Ejections.Value())
	}

	// One success on probation clears strikes and backoff: the next run
	// needs maxStrikes failures again and is out for the first backoff.
	if !r.eligible(until) {
		t.Fatal("replica not readmitted after its doubled backoff")
	}
	r.onResult(outcomeOK)
	strikeOut(maxStrikes, time.Second)
	if met.Ejections.Value() != 3 || met.Readmissions.Value() != 2 {
		t.Fatalf("ejections/readmissions = %d/%d, want 3/2", met.Ejections.Value(), met.Readmissions.Value())
	}
}

// TestShedsAndCancelsAreNeutral pins the overload firewall: replica
// backpressure (sheds) and cancelled attempts must never count against a
// replica — ejecting it *because* it is protecting itself would convert
// overload into capacity loss — nor clear the strikes real failures left.
func TestShedsAndCancelsAreNeutral(t *testing.T) {
	r, met := newTestReplica(&stubWorker{name: "w"}, ResilienceConfig{})
	for i := 0; i < 20; i++ {
		r.onResult(outcomeShed)
		r.onResult(outcomeNeutral)
	}
	if !r.eligible(time.Now()) || met.Ejections.Value() != 0 {
		t.Fatalf("sheds/cancels took the replica out (ejections %d)", met.Ejections.Value())
	}
	for i := 0; i < maxStrikes; i++ {
		r.onResult(outcomeFail)
		r.onResult(outcomeShed)
		r.onResult(outcomeNeutral)
	}
	if r.eligible(time.Now()) || met.Ejections.Value() != 1 {
		t.Fatalf("sheds/cancels between failures reset the strikes (ejections %d)", met.Ejections.Value())
	}
}

// TestEjectionReadmissionBackoff drives one replica's probe lifecycle with a
// synthetic clock: ejection on the first failed probe, readmission probes on
// a doubling capped backoff whose jitter never lands later than the nominal
// bound, and a return on probation with no reason once the probe passes.
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
	if r.eligible(time.Now()) {
		t.Fatal("failed probe did not eject")
	}
	if st := r.snapshot(); !st.Ejected || st.Reason != "probe" {
		t.Fatalf("snapshot %+v, want ejected by the probe", st)
	}
	if met.Ejections.Value() != 1 || ej.Load() != 1 {
		t.Fatalf("ejections = %d / count %d, want 1/1", met.Ejections.Value(), ej.Load())
	}
	next := outUntil(r)
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

	// Recovery: the probe on schedule readmits, on probation.
	w.down.Store(false)
	r.onResult(outcomeFail) // a straggler's failure while ejected is not a strike
	r.probe(ctx, now.Add(300*time.Millisecond))
	if !r.eligible(time.Now()) {
		t.Fatal("recovered probe did not readmit")
	}
	if met.Readmissions.Value() != 1 || ej.Load() != 0 {
		t.Fatalf("readmissions = %d / count %d, want 1/0", met.Readmissions.Value(), ej.Load())
	}
	if st := r.snapshot(); st.Ejected || st.Reason != "" {
		t.Fatalf("snapshot %+v after readmission, want in rotation with no reason", st)
	}
	r.mu.Lock()
	strikes := r.strikes
	r.mu.Unlock()
	if strikes != maxStrikes-1 {
		t.Fatalf("strikes = %d after readmission, want %d (probation)", strikes, maxStrikes-1)
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
			ProbeInterval: -1,
			RetryBudget:   2, RetryBackoff: time.Millisecond,
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
			ProbeInterval: -1,
			RetryBudget:   2, RetryBackoff: time.Millisecond,
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

// TestReadyzCountsReplicasOutForRequests: with probing off, both replicas
// of shard 1 failing every search leave rotation on their strikes alone, and
// readiness reads that same gate — HealthErr names shard 1, /readyz answers
// 503 and the ejected gauge reads 2 — until their backoff runs out and a
// search succeeds.
func TestReadyzCountsReplicasOutForRequests(t *testing.T) {
	_, shards, queries := fixture(t)
	var failing atomic.Bool
	flaky := func(name string) Worker {
		return &stubWorker{name: name, search: func(ctx context.Context, qs []string, shard, numShards int) (*blast.ShardResult, error) {
			if failing.Load() {
				return nil, errors.New("replica broken")
			}
			return shards[shard].SearchShardBatchCtx(ctx, qs, shard, numShards)
		}}
	}
	rt, err := New([][]Worker{{delegate("good", shards[0])}, {flaky("bad0"), flaky("bad1")}, {delegate("s2", shards[2])}},
		Options{Registry: obs.NewRegistry(), Resilience: ResilienceConfig{
			ProbeInterval:  -1,
			ReadmitBackoff: 500 * time.Millisecond, ReadmitBackoffMax: time.Second,
			RetryBackoff: time.Millisecond,
		}})
	if err != nil {
		t.Fatal(err)
	}
	h := NewFrontend(rt, FrontendConfig{Registry: obs.NewRegistry()}).Handler()
	getReady := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code
	}

	failing.Store(true)
	for i := 0; i < 2*maxStrikes && rt.HealthyReplicas(1) > 0; i++ {
		rt.Search(context.Background(), queries)
	}
	if err := rt.HealthErr(); err == nil || !strings.Contains(err.Error(), "[1]") {
		t.Fatalf("HealthErr = %v with both shard-1 replicas struck out, want an error naming shard 1", err)
	}
	if code := getReady(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with shard 1 out of rotation, want 503", code)
	}
	if got := rt.met.ReplicasEjected.Value(); got != 2 {
		t.Fatalf("router_replicas_ejected = %v, want 2", got)
	}
	for _, st := range rt.ReplicaStates()[1] {
		if !st.Ejected || st.Reason != "requests" {
			t.Fatalf("shard 1 replica %+v, want ejected for requests", st)
		}
	}

	// Repaired: once both backoffs have run out (jitter never exceeds the
	// nominal 500ms) a search succeeds and readiness follows.
	failing.Store(false)
	time.Sleep(500 * time.Millisecond)
	if _, rep, err := rt.Search(context.Background(), queries); err != nil || rep.Failed() != 0 {
		t.Fatalf("search after the repair: %v, shards %+v", err, rep.Shards)
	}
	if err := rt.HealthErr(); err != nil {
		t.Fatalf("HealthErr after recovery: %v", err)
	}
	if code := getReady(); code != http.StatusOK {
		t.Fatalf("/readyz = %d after recovery, want 200", code)
	}
	if got := rt.met.ReplicasEjected.Value(); got != 0 {
		t.Fatalf("router_replicas_ejected = %v after recovery, want 0", got)
	}
}

// TestShardWithNoReplicaInRotation reaches the scatter's fallback: a shard
// whose every replica is out spends no attempt and no retry, reports the
// "no eligible replica" error, and leaves every query incomplete — while the
// retry budget it did not touch still carries another shard through two
// failures.
func TestShardWithNoReplicaInRotation(t *testing.T) {
	_, shards, queries := fixture(t)
	var calls atomic.Int64
	flaky := &stubWorker{name: "flaky", search: func(ctx context.Context, qs []string, shard, numShards int) (*blast.ShardResult, error) {
		if calls.Add(1) <= 2 {
			return nil, errors.New("transient")
		}
		return shards[0].SearchShardBatchCtx(ctx, qs, shard, numShards)
	}}
	gone := countingDelegate("gone", shards[1])
	rt, err := New([][]Worker{{flaky}, {gone}, {delegate("s2", shards[2])}},
		Options{Registry: obs.NewRegistry(), Resilience: ResilienceConfig{
			ProbeInterval: -1, RetryBudget: 2, RetryBackoff: time.Millisecond,
		}})
	if err != nil {
		t.Fatal(err)
	}
	gone.down.Store(true)
	rt.probeAll(context.Background(), time.Now())
	if rt.HealthyReplicas(1) != 0 {
		t.Fatal("failed probe left shard 1's only replica in rotation")
	}

	br, rep, err := rt.Search(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Shards[1]
	if st.Attempts != 0 || st.OK || st.Shed || st.Err == nil || !strings.Contains(st.Err.Error(), "no eligible replica") {
		t.Fatalf("shard 1 status %+v, want 0 attempts and the no-eligible-replica error", st)
	}
	if gone.served.Load() != 0 {
		t.Fatal("a replica out of rotation was sent a search")
	}
	if got := rt.met.ShardErrors.Value(); got != 1 {
		t.Fatalf("router_shard_errors = %d, want 1", got)
	}
	if s0 := rep.Shards[0]; !s0.OK || s0.Attempts != 3 {
		t.Fatalf("shard 0 status %+v, want OK on the full budget's third attempt", s0)
	}
	if rt.met.Retries.Value() != 2 || rt.met.RetryBudgetDry.Value() != 0 {
		t.Fatalf("retries %d, budget-dry %d; want 2 and 0", rt.met.Retries.Value(), rt.met.RetryBudgetDry.Value())
	}
	for qi := range queries {
		if br.Completed[qi] {
			t.Fatalf("query %d completed without shard 1", qi)
		}
	}
}
