// Command mublastpr is the scatter-gather routing daemon: it serves one
// logical database that was split into shard containers (makedb -shards N),
// each served by its own mublastpd shard daemon, scattering every /search to
// all shards over HTTP (/shard/search) and merging the shard results
// byte-identically to a monolithic mublastpd serving the unsharded container
// — same hits, same E-values, same order.
//
// Usage:
//
//	mublastpd -db db.mublastp.shard0-of-2 -addr :8044 -global-sequences N -global-residues R   # one per shard
//	mublastpr -workers 'http://h1:8044|http://h2:8044,http://h3:8044' -addr :8045               # '|' separates replicas of one shard
//
// The replicas of a shard take requests round-robin. Before serving, every
// worker's /shard/info is cross-checked against one rule
// (blast.VerifyTopology): all replicas of a shard must hold the same slice,
// all shards the same build fingerprint, and the shard sizes must fit one
// round-robin split of one database. The workers must be started with
// -global-sequences/-global-residues (makedb -shards prints them) so
// E-values are computed against the whole logical database, the invariant
// the byte-identical merge rests on.
//
// Every replica is wrapped in a resilience layer: one gate that takes the
// replica out of rotation on a failed /readyz probe or on three consecutive
// failed requests and readmits it after a jittered backoff, and a
// per-request retry budget. A shard has one attempt in flight at a time: a
// retry starts only after the attempt before it failed. /readyz on this
// daemon fails while any shard has no replica in rotation.
//
// Endpoints (all on -addr):
//
//	POST /search    {"queries":[...], "timeout_ms":5000}
//	POST /reload    {"paths":["shard0.mbc","shard1.mbc"]} rolling per-shard reload:
//	                one /reload per replica, which opens and checks its candidate
//	                before it swaps, never the last healthy one.
//	                Paths may be ingest-store directories: this is how delta
//	                propagation rolls across a fleet — each replica picks up the
//	                store's current base+delta manifest in turn, and the remote
//	                coherence handshake refuses to serve a shard whose replicas
//	                sit at different manifest commits until the roll completes
//	GET  /replicas  per-replica name, ejected (out of rotation), reason ("probe"/"requests")
//	GET  /healthz   liveness; /readyz readiness (503 while draining or a shard
//	                has no replica in rotation)
//	GET  /metrics, /debug/vars, /debug/pprof/  (the obs debug surface)
//
// A shard replica that is saturated sheds its part of a request; the
// response then reports those queries incomplete (never fake zero-hit
// results) with Retry-After forwarded. Only when every shard sheds does the
// daemon answer 429. SIGINT/SIGTERM drain gracefully as in mublastpd: the
// process lifecycle, its flags and the HTTP edge are the ones mublastpd runs
// (server.RegisterFlags, server.Edge), and so are the request bounds
// without a flag (server.MaxTimeout, server.MaxQueries). The search flags
// (-threads, -evalue, -max-hits) are the shard daemons', and the handshake
// refuses a fleet whose shard daemons run with different -evalue or
// -max-hits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

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
		workerSpec = flag.String("workers", "", "comma-separated shard worker URLs in shard order; '|' separates replicas of one shard, e.g. 'http://h1:8044|http://h2:8044,http://h3:8044' (required)")
	)
	// Zero resilience values select router.ResilienceConfig's defaults.
	var res router.ResilienceConfig
	flag.DurationVar(&res.ProbeInterval, "probe-interval", 0, "health-probe interval for shard replicas (/readyz-driven ejection; 0 = default)")
	flag.DurationVar(&res.ReadmitBackoff, "readmit-backoff", 0, "how long a replica stays out of rotation after a failed probe or three failed requests (doubles, jittered, up to -readmit-backoff-max, while it keeps failing; 0 = default)")
	flag.DurationVar(&res.ReadmitBackoffMax, "readmit-backoff-max", 0, "readmission backoff ceiling (0 = default)")
	flag.IntVar(&res.RetryBudget, "retry-budget", 0, "retries one request may spend across all shards (0 = default, -1 disables)")
	flag.DurationVar(&res.RetryBackoff, "retry-backoff", 0, "pause before retry k, scaled by k (0 = default)")
	flag.Parse()
	if *workerSpec == "" {
		fmt.Fprintln(os.Stderr, "mublastpr: -workers is required")
		flag.Usage()
		os.Exit(2)
	}

	var urls [][]string
	for _, shard := range strings.Split(*workerSpec, ",") {
		var reps []string
		for _, rep := range strings.Split(shard, "|") {
			if rep = strings.TrimSpace(rep); rep != "" {
				reps = append(reps, rep)
			}
		}
		if len(reps) == 0 {
			return fmt.Errorf("empty shard entry in %q", *workerSpec)
		}
		urls = append(urls, reps)
	}

	return serve(func(cfg server.Config) (server.Daemon, string, error) {
		workers, generations, err := remoteWorkers(urls, cfg.Logf)
		if err != nil {
			return nil, "", err
		}
		rt, err := router.New(workers, router.Options{Registry: obs.Default, Resilience: res})
		if err != nil {
			return nil, "", err
		}
		fe := router.NewFrontend(rt, router.FrontendConfig{
			DefaultTimeout: cfg.DefaultTimeout,
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
		return fe, fmt.Sprintf("timeout %v, retry budget %d",
			cfg.DefaultTimeout, rt.Resilience().RetryBudget), nil
	})
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
