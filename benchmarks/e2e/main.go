// Command e2e is the repository's end-to-end benchmark. It builds its inputs
// from a seed, drives the public surface of the system (blast, the shard
// daemon, the scatter-gather router, the ingest store) the way its users do,
// checks every output against the monolithic from-scratch search, and prints
// each metric by name and unit. The last line of standard output is the
// machine-readable result. See ../README.md.
//
// It observes the layers only from outside: it times the calls it makes,
// reads the statistics those calls return, and wraps router.Worker in a
// timing decorator. It imports nothing a simplification of the engine is
// expected to delete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the gated metrics, printed by the untraced run. The list and
// the per-layer list below must match BENCHMARK.json (a test checks it).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_qps", "1/s"},
	{"lat_p50_ms", "ms"},
	{"resident_mb", "MiB"},
}

// perLayer are the ungated metrics of the traced run. Every workload prints
// all of them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	// engine stages, worker-time per batch pass (batch_mixed)
	{"core.hit_detect_ms", "ms"}, {"core.prefilter_ms", "ms"}, {"hitsort.sort_ms", "ms"},
	{"ungapped.extend_ms", "ms"}, {"gapped.score_ms", "ms"}, {"gapped.traceback_ms", "ms"},
	// engine counts per batch pass; they repeat exactly for one seed
	{"core.hits", "count"}, {"core.pairs", "count"}, {"core.prefilter_survival", "ratio"},
	{"hitsort.sorted_items", "count"}, {"ungapped.extensions", "count"}, {"ungapped.kept_ratio", "ratio"},
	{"gapped.extensions", "count"}, {"gapped.tracebacks", "count"}, {"blast.hits_reported", "count"},
	{"blast.odd_hits", "count"},
	// batch scheduler
	{"parallel.tasks", "count"}, {"parallel.utilization", "ratio"}, {"parallel.stall_ms", "ms"},
	{"parallel.task_imbalance", "ratio"}, {"parallel.speedup", "ratio"},
	{"blast.facade_ms", "ms"},
	// set-up
	{"blast.newdb_ms", "ms"}, {"blast.save_ms", "ms"}, {"blast.load_ms", "ms"}, {"blast.verify_ms", "ms"},
	{"blast.container_bytes_per_residue", "B"}, {"blast.shards_ms", "ms"}, {"router.handshake_ms", "ms"},
	{"store.init_ms", "ms"},
	// sharded request path, one caller at a time (serve_sharded)
	{"router.request_ms", "ms"}, {"router.shard_rpc_ms", "ms"}, {"router.shard_skew", "ratio"},
	{"router.self_ms", "ms"}, {"server.shard_engine_ms", "ms"}, {"server.rpc_overhead_ms", "ms"},
	// sharded request path under the closed loop, from the harness's registries
	{"router.scatter_ms_mean", "ms"}, {"router.merge_ms_mean", "ms"},
	{"server.queue_wait_ms_mean", "ms"}, {"server.request_ms_mean", "ms"},
	{"router.resp_bytes", "B"}, {"router.retries", "count"}, {"router.shard_sheds", "count"},
	{"router.shard_errors", "count"},
	// serving latency beyond the gated median (serve_*)
	{"serve.lat_p95_ms", "ms"}, {"serve.lat_p99_ms", "ms"},
	{"serve.open_p50_ms", "ms"}, {"serve.open_p95_ms", "ms"}, {"serve.gen_late_p95_ms", "ms"},
	// daemon with an ingest store (serve_ingest)
	{"serve.ingest_p50_ms", "ms"}, {"store.ingest_p90_ms", "ms"},
	{"server.queue_wait_ms", "ms"}, {"server.search_ms", "ms"}, {"server.http_overhead_ms", "ms"},
	{"server.ingest_overhead_ms", "ms"},
	{"store.append_ms", "ms"}, {"store.view_ms", "ms"}, {"store.compact_ms", "ms"}, {"store.open_ms", "ms"},
	{"store.disk_bytes_per_residue", "B"}, {"store.compactions", "count"}, {"store.deltas_max", "count"},
	{"server.ingest_shed", "count"}, {"blast.tier_slowdown", "ratio"},
	// the harness itself
	{"harness.trace_overhead_pct", "%"}, {"harness.unattributed_pct", "%"},
	{"harness.gomaxprocs", "count"}, {"harness.nproc", "count"},
}

var workloads = map[string]func(*env) error{
	"batch_mixed":   runBatch,
	"serve_sharded": runSharded,
	"serve_ingest":  runIngest,
}

// env is what one run carries around.
type env struct {
	seed    int64
	seconds time.Duration // length of the timed phase
	w       int           // engine threads and client connections: min(nproc, 4)
	workdir string        // scratch for containers and stores, inside the checkout
	tr      *tracer       // nil in the untraced run
	cal     *speedometer  // see calib.go

	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	odd       map[string]bool // see check.go
}

func (e *env) traced() bool { return e.tr != nil }

func (e *env) set(name string, v float64) { e.values[name] = v }

// setTail reports a tail latency, and says so when the phase had too few
// samples to carry it (fewer than ten beyond it).
func (e *env) setTail(name string, segs []segment, q float64) {
	v, ok := tail(segs, q)
	if !ok {
		fmt.Printf("note: %s rests on fewer than ten samples beyond it\n", name)
	}
	e.set(name, v)
}

// fail counts n operations as failed and keeps the first few reasons.
func (e *env) fail(n int, format string, args ...any) {
	e.failed += n
	if len(e.problems) < 8 {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
}

// timed runs f, records it as a root span of the trace and returns its wall
// time in milliseconds.
func (e *env) timed(name string, f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	e.tr.add(name, 0, 0, t0, t1)
	return ms(t1.Sub(t0)), err
}

// heapLive is the live heap after a forced collection (two, so that objects
// freed by finalizers in the first are gone too).
func heapLive() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// A run sets its workload up at least minSetupCycles times, and until
// setupBudget is spent or maxSetupCycles is reached, so that a set-up of
// 45 ms is timed 60 times and one of 450 ms seven. One cycle on the
// reference host takes from 0.6 to 2.5 times its median within the same run
// (neighbours, in bursts of tens of milliseconds), so it is the number of
// cycles that makes the median repeat. The first cycle is cold (page cache,
// heap growth) and dropped; setup_s is the median of the rest.
const (
	minSetupCycles = 5
	maxSetupCycles = 64
	setupBudget    = 5 * time.Second // cycles, tear-downs, collections and calibration slices together
	// When the disk is having a bad hour (a cycle of batch_mixed took 11 s
	// once) three cycles must do, or the run would outlast the driver's patience.
	setupPatience = 15 * time.Second
)

// phases collects the timed steps of one set-up cycle under their metric names.
type phases map[string]float64

func (p phases) time(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	p[name] += ms(time.Since(t0))
	if err != nil {
		return fmt.Errorf("%s: %w", strings.TrimSuffix(name, "_ms"), err)
	}
	return nil
}

// setUp runs cycle several times in fresh directories, tears every product
// but the last down, and reports setup_s (CPU time, see processCPU, on the
// nominal host, see calib.go), resident_mb and the median wall time of each
// step. cycle leaves its products in variables of the caller and returns
// how to release them.
func (e *env) setUp(cycle func(dir string, ph phases) (teardown func(), err error)) (func(), error) {
	base := heapLive()
	// The collector is off during a cycle and runs between cycles, outside
	// the timer. With it on, a cycle's CPU time held two things that depend
	// on timing and not on the set-up: the marking that idle-priority
	// workers do on the second core, and the faulting-in again of whatever
	// memory the scavenger had returned to the system since the last cycle
	// (30-95 ms of system time in a serve_ingest cycle of 130 ms, 12-35 ms
	// with the heap kept). What is timed is the set-up's own code on a warm
	// heap.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var sliced time.Time // when the last calibration slice was taken
	var cpu, wall []float64
	steps := map[string][]float64{}
	var teardown func()
	for i, start := 0, time.Now(); i < maxSetupCycles; i++ {
		spent := time.Since(start)
		if (i >= minSetupCycles && spent > setupBudget) || (i >= 3 && spent > setupPatience) {
			break
		}
		// The slice comes before the tear-down and the collection, so that
		// every cycle starts from what those leave in the caches, whether a
		// slice was taken or not.
		if time.Since(sliced) > 200*time.Millisecond {
			e.cal.slice()
			sliced = time.Now()
		}
		if teardown != nil {
			teardown()
			os.RemoveAll(filepath.Join(e.workdir, fmt.Sprintf("setup%d", i-1)))
		}
		dir := filepath.Join(e.workdir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC()
		ph := phases{}
		t0, c0 := time.Now(), processCPU()
		td, err := cycle(dir, ph)
		dc, dt := processCPU()-c0, time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("set-up cycle %d: %w", i, err)
		}
		teardown = td
		e.tr.add("setup", 0, i, t0, t0.Add(dt))
		if i > 0 {
			cpu, wall = append(cpu, dc.Seconds()), append(wall, dt.Seconds())
			for k, v := range ph {
				steps[k] = append(steps[k], v)
			}
		}
	}
	fmt.Printf("set-up: %d cycles timed, %.3f..%.3f s of CPU time, %.3f..%.3f s of wall time\n",
		len(cpu), quantile(cpu, 0), quantile(cpu, 1), quantile(wall, 0), quantile(wall, 1))
	e.cal.slice()
	e.set("setup_s", median(cpu)*e.cal.speed())
	e.set("wall.setup_s", median(wall))
	e.set("resident_mb", (heapLive()-base)/(1<<20))
	for k, v := range steps {
		e.set(k, median(v))
	}
	return teardown, nil
}

func hostFacts(w int) string {
	cache := func(idx string) string {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + idx + "/size")
		if err != nil {
			return "?"
		}
		return strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d W=%d %s %s/%s L1d=%s L2=%s L3=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), w, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cache("index0"), cache("index2"), cache("index3"))
}

func main() {
	workload := flag.String("workload", "", "batch_mixed, serve_sharded or serve_ingest")
	seed := flag.Int64("seed", 7, "seed of every generated input")
	seconds := flag.Float64("seconds", 0, "length of the timed phase (required; BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics and writes the span file")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for containers and stores")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: e2e -workload batch_mixed|serve_sharded|serve_ingest -seconds s [-seed n] [-trace 0|1]")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workdir, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		w:       min(runtime.NumCPU(), 4),
		workdir: dir,
		values:  map[string]float64{},
		odd:     map[string]bool{},
	}
	e.cal = newSpeedometer(e.w)
	defs := endToEnd
	if *trace != 0 {
		e.tr = newTracer()
		defs = perLayer
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d\n%s\n", *workload, e.seed, *seconds, *trace, hostFacts(e.w))

	watch := startWatch()
	err = run(e)
	_, share := watch.stop()
	e.set("host.steal_pct", 100*(1-share))
	os.RemoveAll(dir)
	if err == nil && e.traced() {
		path := filepath.Join("benchmarks", "out", *workload+".trace.jsonl")
		if err = e.tr.write(path); err == nil {
			fmt.Printf("trace: %d spans in %s\n", len(e.tr.spans), path)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	e.settleOdd()
	e.set("harness.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	e.set("harness.nproc", float64(runtime.NumCPU()))

	// Everything measured, gated or not, then the result line.
	names := make([]string, 0, len(e.values))
	for k := range e.values {
		names = append(names, k)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range append(append([]metricDef{{"host.steal_pct", "%"}, {"harness.unattributed_loaded_pct", "%"}}, endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	for _, k := range names {
		fmt.Printf("metric %-36s %14.4f %s\n", k, e.values[k], units[strings.TrimPrefix(k, "wall.")])
	}
	for _, p := range e.problems {
		fmt.Println("problem:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{e.failed == 0 && e.attempted > 0, e.attempted, e.failed, map[string]value{}}
	for _, d := range defs {
		result.Metrics[d.name] = value{e.values[d.name], d.unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !result.Correct {
		os.Exit(1)
	}
}
