package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/blast"
	"repro/internal/obs"
	"repro/internal/seqgen"
)

// batchDBResidues sizes the batch database: 7.1 M residues (a uniprot-like
// 20 000 sequences), about 33 MB resident, 8 times this host's two 2 MiB L2s.
const batchDBResidues = 7_100_000

// batchQueries is the size of the batch: query lengths at the 16 quantiles
// of the uniprot length distribution, 5572 residues together.
const batchQueries = 16

// stageMetrics names the six engine stages in obs pipeline order.
var stageMetrics = [obs.NumStages]string{
	"core.hit_detect_ms", "core.prefilter_ms", "hitsort.sort_ms",
	"ungapped.extend_ms", "gapped.score_ms", "gapped.traceback_ms",
}

// runBatch is batch_mixed: one caller hands the engine a whole batch in
// process and waits for it, the paper's use. Nothing but the
// engine stages and the batch scheduler works here.
func runBatch(e *env) error {
	ladder := uniprotLadder(batchQueries)
	g := seqgen.New(seqgen.UniprotProfile(), e.seed)
	seqs, codes := genDB(g, batchDBResidues, "s")
	queries := genQueries(g, codes, ladder)
	codes = nil
	fmt.Printf("inputs: %d sequences, %d residues, %d queries of %d residues\n",
		len(seqs), totalResidues(seqs), len(queries), sum(ladder))

	// Set-up is what a user does before the first search: build the index,
	// save the container, verify it, load it. The container goes to memory,
	// not to a file: in a bad hour of the reference host's disk one 36 MB
	// SaveFile took 8 s, five of them would outlast the driver's patience,
	// and what they would time is the disk. The serving workloads set up
	// through files.
	p := baseParams(e.w)
	var db *blast.Database
	perResidue := 0.0
	_, err := e.setUp(func(_ string, ph phases) (func(), error) {
		var fresh *blast.Database
		var container bytes.Buffer
		db = nil
		err := ph.time("blast.newdb_ms", func() (err error) { fresh, err = blast.NewDatabase(seqs, p); return })
		if err == nil {
			err = ph.time("blast.save_ms", func() error { return fresh.Save(&container) })
		}
		if err == nil {
			err = ph.time("blast.verify_ms", func() error { _, err := blast.Verify(bytes.NewReader(container.Bytes())); return err })
		}
		if err == nil {
			err = ph.time("blast.load_ms", func() (err error) { db, err = blast.Load(bytes.NewReader(container.Bytes()), p); return })
		}
		perResidue = float64(container.Len()) / batchDBResidues
		return func() {}, err
	})
	if err != nil {
		return err
	}
	e.set("blast.container_bytes_per_residue", perResidue)

	// The warm pass runs on a from-scratch database; every later pass runs
	// on the one loaded from the container and must hash the same.
	fresh, err := blast.NewDatabase(seqs, p)
	if err != nil {
		return err
	}
	want, err := batchPass(e, fresh, queries, nil, false)
	if err != nil {
		return err
	}
	fresh = nil

	if !e.traced() {
		var walls, raws []float64
		e.cal.forget()
		for start := time.Now(); time.Since(start) < e.seconds || len(walls) < 3; {
			e.cal.slice()
			r, err := batchPass(e, db, queries, &want, false)
			if err != nil {
				return err
			}
			walls, raws = append(walls, r.wall.Seconds()), append(raws, r.raw.Seconds())
		}
		e.cal.slice()
		fmt.Printf("passes: %d timed, %.3f..%.3f s, %.3f..%.3f s of wall time\n",
			len(walls), quantile(walls, 0), quantile(walls, 1), quantile(raws, 0), quantile(raws, 1))
		pass := median(walls) * e.cal.speed()
		e.set("wall.lat_p50_ms", 1000*median(raws))
		e.set("search_qps", float64(len(queries))/pass)
		e.set("lat_p50_ms", 1000*pass)
		return nil
	}

	// Traced run: the same pass untraced and traced in turn for two thirds
	// of the time, then one single-threaded pass for the speed-up and the
	// counts. With several workers core.pairs and what follows from it vary
	// by about one in 10^5 between passes of identical output (which worker's
	// last-hit slots a task finds depends on the schedule); with one worker
	// every count repeats exactly, so that is the pass they are read from.
	var plain, withSpans, rawSpans []float64
	times := map[string][]float64{}
	for start := time.Now(); time.Since(start) < e.seconds*2/3 || len(plain) < 1; {
		a, err := batchPass(e, db, queries, &want, false)
		if err != nil {
			return err
		}
		b, err := batchPass(e, db, queries, &want, true)
		if err != nil {
			return err
		}
		plain, withSpans, rawSpans = append(plain, a.wall.Seconds()), append(withSpans, b.wall.Seconds()), append(rawSpans, b.raw.Seconds())
		for k, v := range b.times {
			times[k] = append(times[k], v)
		}
	}
	for k, v := range times {
		e.set(k, median(v))
	}
	e.set("harness.trace_overhead_pct", 100*(median(withSpans)/median(plain)-1))
	e.set("harness.unattributed_pct", 100*ratio(e.tr.selfByName()["parallel"], 1000*sum(rawSpans)))

	var container bytes.Buffer
	if err := db.Save(&container); err != nil {
		return err
	}
	db1, err := blast.Load(&container, baseParams(1))
	if err != nil {
		return fmt.Errorf("loading for the one-thread pass: %w", err)
	}
	one, err := batchPass(e, db1, queries, &want, true)
	if err != nil {
		return err
	}
	e.set("parallel.speedup", one.wall.Seconds()/median(plain))
	for k, v := range one.counts {
		e.set(k, v)
	}
	return nil
}

type passResult struct {
	hash string
	hits [][]string    // per query, the tabular lines of its hits
	wall time.Duration // on the unstolen clock, see clock.go
	raw  time.Duration
	// With spans: what the call returned about its layers, as figures that
	// vary with the schedule (times, in ms) and counts that one worker
	// repeats exactly.
	times, counts map[string]float64
}

// batchPass runs the batch once and checks it, outside the timer: every
// query completed, and the rendered hits hash to want's (unless want is nil,
// which is the reference pass); if they do not, they are compared hit by
// hit (check.go). With spans it also records the pass as a
// span tree, inside the timer, so that the cost of tracing shows.
func batchPass(e *env, db *blast.Database, queries []string, want *passResult, spans bool) (passResult, error) {
	runtime.GC()
	watch := startWatch()
	t0 := watch.t0
	br, err := db.SearchBatchCtx(context.Background(), queries)
	if err != nil {
		return passResult{}, fmt.Errorf("batch search: %w", err)
	}
	var stage [obs.NumStages]int64
	if spans {
		// pass = facade (its self time) + parallel; parallel = the six stages
		// and the stall, as worker-time divided by the workers, and a self
		// time no stage owns.
		req := int(br.Sched.Workers) // the one-worker pass is told apart by it
		pass := e.tr.add("pass", 0, req, t0, time.Now())
		par := e.tr.fill("parallel", pass, req, t0, 0, br.Sched.ElapsedNanos)
		for _, r := range br.Results {
			for s, n := range r.Stats.StageNanos {
				stage[s] += n
			}
		}
		w, off := int64(max(br.Sched.Workers, 1)), int64(0)
		for s, n := range stage {
			e.tr.fill(strings.TrimSuffix(stageMetrics[s], "_ms"), par, req, t0, off, n/w)
			off += n / w
		}
		e.tr.fill("parallel.stall", par, req, t0, off, br.Sched.StallNanos/w)
	}
	raw, share := watch.stop()
	res := passResult{wall: scale(raw, share), raw: raw}

	h := sha256.New()
	reported := 0
	res.hits = make([][]string, len(queries))
	for i, r := range br.Results {
		if !br.Completed[i] {
			e.fail(1, "query %d incomplete: %v", i, br.QueryErrs[i])
			continue
		}
		tab := r.Tabular("q")
		fmt.Fprintf(h, "%d\n%s", i, tab)
		res.hits[i] = strings.Split(strings.TrimSuffix(tab, "\n"), "\n")
		reported += len(r.Hits)
	}
	res.hash = fmt.Sprintf("%x", h.Sum(nil))
	e.attempted += len(queries)
	if want != nil && res.hash != want.hash {
		for i := range queries {
			if err := e.sameHits(res.hits[i], want.hits[i]); err != nil {
				e.fail(1, "query %d differs from the from-scratch database's: %v", i, err)
			}
		}
	}
	if reported == 0 {
		e.fail(len(queries), "no hit reported for queries cut from the database")
	}
	if !spans {
		return res, nil
	}

	var hits, pairs, sorted, ext, kept, gapped, tb float64
	for _, r := range br.Results {
		s := r.Stats
		hits, pairs, sorted = hits+float64(s.Hits), pairs+float64(s.Pairs), sorted+float64(s.SortedItems)
		ext, kept = ext+float64(s.Extensions), kept+float64(s.Kept)
		gapped, tb = gapped+float64(s.GappedExts), tb+float64(s.Tracebacks)
	}
	res.counts = map[string]float64{
		"core.hits": hits, "core.pairs": pairs, "core.prefilter_survival": ratio(pairs, hits),
		"hitsort.sorted_items": sorted,
		"ungapped.extensions":  ext, "ungapped.kept_ratio": ratio(kept, ext),
		"gapped.extensions": gapped, "gapped.tracebacks": tb,
		"blast.hits_reported": float64(reported),
	}
	res.times = map[string]float64{
		"parallel.tasks":          float64(br.Sched.Tasks), // the same in every pass
		"parallel.stall_ms":       float64(br.Sched.StallNanos) / 1e6,
		"parallel.utilization":    br.Sched.Utilization(),
		"parallel.task_imbalance": ratio(float64(br.Sched.MaxWorkerTasks), float64(max(br.Sched.MinWorkerTasks, 1))),
		"blast.facade_ms":         ms(res.raw) - float64(br.Sched.ElapsedNanos)/1e6,
	}
	for s, n := range stage {
		res.times[stageMetrics[s]] = float64(n) / 1e6
	}
	return res, nil
}

func sum[T int | float64](xs []T) T {
	var n T
	for _, x := range xs {
		n += x
	}
	return n
}
