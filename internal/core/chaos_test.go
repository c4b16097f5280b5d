package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/search"
)

// TestChaosBatch runs randomized fault schedules against both schedulers and
// asserts the two invariants the failure model promises no matter what faults
// fire: every query flagged Completed is byte-identical to a fault-free run,
// and the batch call leaks no goroutines. `make chaos` runs this (and the
// cluster chaos test) under -race; CHAOS_SEED pins a single schedule for
// replay, CHAOS_ROUNDS widens the sweep.
func TestChaosBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	rounds := 6
	if s := os.Getenv("CHAOS_ROUNDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad CHAOS_ROUNDS %q: %v", s, err)
		}
		rounds = n
	}
	seeds := make([]int64, rounds)
	for i := range seeds {
		seeds[i] = int64(1000 + 17*i)
	}
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seeds = []int64{n}
	}

	cfg, ix, queries := world(t, 211, 180, 6, 200, 4096)
	e := NewWithOptions(cfg, ix, Options{Metrics: obs.Discard})
	baseline := e.SearchBatch(queries, 3)

	base := runtime.NumGoroutine()
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("replay with: CHAOS_SEED=%d go test -race -run TestChaosBatch ./internal/core", seed)
				}
			}()
			rng := rand.New(rand.NewSource(seed))
			spec, deadline := chaosSchedule(rng)
			t.Logf("schedule %q deadline=%v", spec, deadline)

			if err := faultinject.Enable(spec, uint64(seed)); err != nil {
				t.Fatalf("enable %q: %v", spec, err)
			}
			defer faultinject.Disable()

			ctx := context.Background()
			cancel := context.CancelFunc(func() {})
			if deadline > 0 {
				ctx, cancel = context.WithTimeout(ctx, deadline)
			}
			defer cancel()

			br := e.SearchBatchCtx(ctx, queries, 3)
			faultinject.Disable()

			if br.Err != nil && !errors.Is(br.Err, search.ErrDeadline) && !errors.Is(br.Err, context.Canceled) {
				t.Fatalf("unexpected batch error class: %v", br.Err)
			}
			for qi := range queries {
				// Completed and QueryErrs are mutually exclusive, jointly
				// exhaustive: a query either finished or carries a reason.
				if br.Completed[qi] != (br.QueryErrs[qi] != nil) {
					continue
				}
				t.Errorf("query %d: Completed=%v but err=%v", qi, br.Completed[qi], br.QueryErrs[qi])
			}
			requireCompletedIdentical(t, fmt.Sprintf("chaos seed %d", seed), &br, baseline)
		})
	}
	waitForGoroutines(t, base)
}

// chaosSchedule draws a random fault schedule: one to three clauses over the
// core sites, mixing panic, delay, and error kinds, with an optional batch
// deadline tight enough to land mid-run when delays are in play.
func chaosSchedule(rng *rand.Rand) (spec string, deadline time.Duration) {
	sites := []string{"sched.task", "core.hitdetect", "core.extend", "core.finalize"}
	kinds := []string{"panic", "delay:2ms", "error"}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		site := sites[rng.Intn(len(sites))]
		kind := kinds[rng.Intn(len(kinds))]
		clause := site + "=" + kind
		switch rng.Intn(3) {
		case 0:
			clause += fmt.Sprintf("#%d", 1+rng.Intn(20))
		case 1:
			clause += fmt.Sprintf("@0.%02d", 1+rng.Intn(30))
		default: // every hit
		}
		if spec != "" {
			spec += ","
		}
		spec += clause
	}
	if rng.Intn(2) == 1 {
		deadline = time.Duration(10+rng.Intn(60)) * time.Millisecond
	}
	return spec, deadline
}
