// Command mublastpr is the scatter-gather routing daemon: it serves one
// logical database that was split into shard containers (makedb -shards N),
// keeping a resident search session per shard replica, scattering every
// /search to all shards, and merging the shard results byte-identically to
// a monolithic mublastpd serving the unsharded container — same hits, same
// E-values, same order.
//
// Usage:
//
//	mublastpr -shards db.shard0-of-2,db.shard1-of-2 -addr :8045
//	mublastpr -shards 'a0|a0b,a1' -policy least-loaded   # '|' separates replicas of one shard
//	mublastpr -workers 'http://h1:8044|http://h2:8044,http://h3:8044'   # remote mublastpd fleet
//
// With -shards every replica is an in-process engine over a local container;
// with -workers every replica is a remote mublastpd driven over HTTP
// (/shard/search). Before serving, the topology is cross-checked against one
// rule (blast.VerifyTopology, fed by the verified files or by every worker's
// /shard/info): all replicas of a shard must hold the same slice, all shards
// the same build fingerprint, and the shard sizes must fit one round-robin
// split of one database — local engines are then opened with the *global*
// residue/sequence totals (remote workers must be started with
// -global-sequences/-global-residues) so E-values are computed against the
// whole logical database, the invariant the byte-identical merge rests on.
//
// Every replica, local or remote, is wrapped in a resilience layer: /readyz
// health probing with ejection and jittered-backoff readmission (remote), a
// circuit breaker fed by request-path failures, a per-request retry budget,
// and optional hedged scatter (-hedge). /readyz on this daemon fails while
// any shard has zero healthy replicas.
//
// Endpoints (all on -addr):
//
//	POST /search    {"queries":[...], "timeout_ms":5000, "policy":"round-robin"}
//	POST /reload    {"paths":["shard0.mbc","shard1.mbc"]} rolling per-shard reload,
//	                verify-before-swap per replica, never the last healthy one.
//	                Paths may be ingest-store directories: this is how delta
//	                propagation rolls across a fleet — each replica picks up the
//	                store's current base+delta manifest in turn, and the remote
//	                coherence handshake refuses to serve a shard whose replicas
//	                sit at different manifest commits until the roll completes
//	GET  /replicas  per-replica lifecycle state (ejection, breaker)
//	GET  /healthz   liveness; /readyz readiness (503 while draining or a shard
//	                has no healthy replica)
//	GET  /metrics, /debug/vars, /debug/pprof/  (the obs debug surface)
//
// A shard replica that is saturated sheds its part of a request; the
// response then reports those queries incomplete (never fake zero-hit
// results) with Retry-After forwarded. Only when every shard sheds does the
// daemon answer 429. SIGINT/SIGTERM drain gracefully as in mublastpd: the
// process lifecycle, its flags and the HTTP edge are the ones mublastpd runs
// (server.RegisterFlags, server.Edge).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/blast"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "mublastpr: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		serve      = server.RegisterFlags("mublastpr", ":8045")
		shardSpec  = flag.String("shards", "", "comma-separated shard containers in shard order; '|' separates replicas of one shard (exactly one of -shards/-workers)")
		workerSpec = flag.String("workers", "", "comma-separated shard worker URLs in shard order; '|' separates replicas of one shard, e.g. 'http://h1:8044|http://h2:8044,http://h3:8044'")
		policy     = flag.String("policy", router.PolicyRoundRobin, "default replica-choice policy: "+strings.Join(router.PolicyNames(), ", "))
		shardConc  = flag.Int("shard-concurrency", 2, "concurrent searches per shard replica; excess sheds")
	)
	// Zero resilience values select router.ResilienceConfig's defaults.
	var res router.ResilienceConfig
	flag.DurationVar(&res.ProbeInterval, "probe-interval", 0, "health-probe interval for remote replicas (/readyz-driven ejection; 0 = default)")
	flag.DurationVar(&res.ReadmitBackoff, "readmit-backoff", 0, "first readmission probe delay after an ejection (doubles, jittered, up to -readmit-backoff-max; 0 = default)")
	flag.DurationVar(&res.ReadmitBackoffMax, "readmit-backoff-max", 0, "readmission backoff ceiling (0 = default)")
	flag.IntVar(&res.RetryBudget, "retry-budget", 0, "extra upstream attempts (retries+hedges) one request may spend across all shards (0 = default, -1 disables)")
	flag.DurationVar(&res.RetryBackoff, "retry-backoff", 0, "pause before retry k, scaled by k (0 = default)")
	flag.BoolVar(&res.Hedge, "hedge", false, "hedged scatter: fire a second replica once a shard outlives its recent p95, first result wins")
	flag.Parse()
	if (*shardSpec == "") == (*workerSpec == "") {
		fmt.Fprintln(os.Stderr, "mublastpr: need exactly one of -shards / -workers")
		flag.Usage()
		os.Exit(2)
	}

	spec := *shardSpec + *workerSpec
	var paths [][]string
	for _, shard := range strings.Split(spec, ",") {
		var reps []string
		for _, rep := range strings.Split(shard, "|") {
			if rep = strings.TrimSpace(rep); rep != "" {
				reps = append(reps, rep)
			}
		}
		if len(reps) == 0 {
			return fmt.Errorf("empty shard entry in %q", spec)
		}
		paths = append(paths, reps)
	}
	opts := router.Options{DefaultPolicy: *policy, Registry: obs.Default, Resilience: res}

	return serve(func(p blast.Params, cfg server.Config) (server.Daemon, string, error) {
		var workers [][]router.Worker
		var generations []func() int64
		var err error
		if *workerSpec != "" {
			workers, generations, err = remoteWorkers(paths, cfg.Logf)
		} else {
			workers, generations, err = localWorkers(paths, p, *shardConc, cfg.Logf)
		}
		if err != nil {
			return nil, "", err
		}
		rt, err := router.New(workers, opts)
		if err != nil {
			return nil, "", err
		}
		fe := router.NewFrontend(rt, router.FrontendConfig{
			DefaultTimeout: cfg.DefaultTimeout,
			MaxTimeout:     cfg.MaxTimeout,
			MaxQueries:     cfg.MaxQueries,
			Registry:       cfg.Registry,
			Tracer:         cfg.Tracer,
			Logf:           cfg.Logf,
			// db_generation is the oldest generation any replica serves.
			Generation: func() int64 {
				g := generations[0]()
				for _, gen := range generations[1:] {
					g = min(g, gen())
				}
				return g
			},
		})
		return fe, fmt.Sprintf("policy %s, timeout %v, retry budget %d, hedge %v",
			rt.DefaultPolicy(), cfg.DefaultTimeout, rt.Resilience().RetryBudget, rt.Resilience().Hedge), nil
	})
}

// localWorkers opens an in-process engine per container. Every container is
// first validated end to end and the set cross-checked as one coherent
// round-robin split (blast.VerifyShardSet); the verified totals are the
// global search space every shard engine is then opened with.
func localWorkers(paths [][]string, p blast.Params, conc int, logf func(string, ...any)) ([][]router.Worker, []func() int64, error) {
	start := time.Now()
	set, err := blast.VerifyShardSet(paths)
	if err != nil {
		return nil, nil, fmt.Errorf("%w; check -shards order and completeness", err)
	}
	p.Matrix = set.Fingerprint.Matrix
	p.GlobalDBResidues = set.TotalResidues
	p.GlobalDBSequences = int64(set.TotalSequences)

	workers := make([][]router.Worker, len(paths))
	var generations []func() int64
	for s, reps := range paths {
		for r, path := range reps {
			ses, err := blast.OpenSession(path, p)
			if err != nil {
				return nil, nil, fmt.Errorf("loading shard %d replica %d (%s): %w", s, r, path, err)
			}
			generations = append(generations, ses.Generation)
			name := fmt.Sprintf("s%d/r%d(%s)", s, r, filepath.Base(path))
			workers[s] = append(workers[s], router.NewLocalWorker(name, ses, conc, 1, 0))
		}
	}
	logf("%d shards (%d replicas) ready in %v; global search space %d sequences, %d residues",
		len(paths), len(generations), time.Since(start).Round(time.Millisecond), set.TotalSequences, set.TotalResidues)
	return workers, generations, nil
}

// remoteWorkers builds a RemoteWorker per mublastpd URL and runs the
// coherence handshake against every replica's /shard/info before any of
// them is trusted with scatter traffic.
func remoteWorkers(urls [][]string, logf func(string, ...any)) ([][]router.Worker, []func() int64, error) {
	start := time.Now()
	shards := make([][]*router.RemoteWorker, len(urls))
	workers := make([][]router.Worker, len(urls))
	var generations []func() int64
	for s, reps := range urls {
		for r, u := range reps {
			w := router.NewRemoteWorker(fmt.Sprintf("s%d/r%d(%s)", s, r, u), u, router.RemoteOptions{})
			shards[s] = append(shards[s], w)
			workers[s] = append(workers[s], w)
			generations = append(generations, w.Generation)
		}
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer hcancel()
	fp, globalSeqs, err := router.VerifyRemoteTopology(hctx, shards)
	if err != nil {
		return nil, nil, err
	}
	logf("%d shards (%d remote replicas) coherent in %v; fingerprint %+v, global %d sequences",
		len(urls), len(generations), time.Since(start).Round(time.Millisecond), *fp, globalSeqs)
	return workers, generations, nil
}
