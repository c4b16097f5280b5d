package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/blast"
	"repro/internal/alphabet"
	"repro/internal/obs"
	"repro/internal/seqgen"
	"repro/internal/server"
)

const (
	ingestBaseResidues  = 1_420_000 // a uniprot-like 4000 sequences
	ingestBatchSeqs     = 10
	ingestBatchResidues = 3550
	ingestCompactAfter  = 4
	scratchDeltas       = 8   // deltas outstanding when the scratch store times a tiered search
	ingestRequests      = 256 // distinct single-query search requests, cycled
	ingestFinalQueries  = 32  // answers compared with a from-scratch rebuild at the end
)

// ingestBatch generates batch k: ten new sequences of a fixed total length,
// so that the database grows by the same amount for every seed.
func ingestBatch(g *seqgen.Generator, k int) []blast.Sequence {
	ladder := uniprotLadder(ingestBatchSeqs)
	ladder[len(ladder)-1] += ingestBatchResidues - sum(ladder)
	out := make([]blast.Sequence, len(ladder))
	for i, l := range ladder {
		out[i] = blast.Sequence{Name: fmt.Sprintf("b%04d_%d", k, i), Residues: alphabet.String(g.Sequence(l))}
	}
	return out
}

func ingestBody(batch []blast.Sequence) []byte {
	req := server.IngestRequest{}
	for _, s := range batch {
		req.Sequences = append(req.Sequences, server.IngestSequence{Name: s.Name, Residues: s.Residues})
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return b
}

// ingestDaemon is one set-up of serve_ingest.
type ingestDaemon struct {
	dir string
	st  *blast.Store
	srv *server.Server
	met *obs.ServerMetrics
	url string
}

// writer posts one batch at every tick of a fixed schedule, on its own
// connection, until stopped. The schedule does not depend on how fast
// ingests are, so a faster ingest cannot grow the database faster and slow
// the searches beside it. Latency runs from the tick.
//
// There are ingestCompactAfter ticks to a segment of the search load, so
// every segment sees the same work beside it: that many appends and one
// compaction. In a bad hour of this host's disk an append with its view swap
// takes about 140 ms and a compaction 760 ms, most of it fsync: 1.3 s of a
// 3 s segment, so the schedule holds.
type writer struct {
	sent     int
	problems []string           // one per batch that was not acknowledged
	batches  [][]blast.Sequence // acknowledged, in order
	lat      []float64          // ms, one per acknowledged batch
	deltaMax int
	compacts int
	lastSeq  int64

	stop atomic.Bool
	done chan struct{}
}

// halt stops the writer after the batch in flight and books its work.
func (w *writer) halt(e *env) {
	w.stop.Store(true)
	<-w.done
	e.attempted += w.sent
	for _, p := range w.problems {
		e.fail(1, "%s", p)
	}
}

func (w *writer) run(tr *tracer, g *seqgen.Generator, url string, tick time.Duration) {
	defer close(w.done)
	client := newClient(1)
	defer client.CloseIdleConnections()
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * tick)
		time.Sleep(time.Until(due))
		if w.stop.Load() {
			return
		}
		batch := ingestBatch(g, k)
		status, body := post(client, url, ingestBody(batch))
		t1 := time.Now()
		tr.add("ingest", 0, k, due, t1)
		w.sent++
		var resp server.IngestResponse
		if status != http.StatusOK {
			w.problems = append(w.problems, fmt.Sprintf("ingest %d: status %d: %.120s", k, status, body))
			continue
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			w.problems = append(w.problems, fmt.Sprintf("ingest %d: %v", k, err))
			continue
		}
		w.batches = append(w.batches, batch)
		w.lat = append(w.lat, ms(t1.Sub(due)))
		w.deltaMax = max(w.deltaMax, resp.Deltas)
		w.lastSeq = resp.ManifestSeq
		if resp.Compacted {
			w.compacts++
		}
	}
}

// runIngest is serve_ingest: one daemon over an ingest store, searches on
// one set of connections and a writer beside them, so WAL, delta build,
// tiered search over 0..3 deltas and the hot view swap are all on the path.
func runIngest(e *env) error {
	g := seqgen.New(seqgen.UniprotProfile(), e.seed)
	base, codes := genDB(g, ingestBaseResidues, "s")
	queries := genQueries(g, codes, constLadder(ingestRequests, serveQueryLen))
	codes = nil
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		bodies[i] = searchBody(reqName(i), q)
	}
	searchers := max(e.w-1, 1)
	segDur := e.seconds / 10
	tick := segDur / ingestCompactAfter
	fmt.Printf("inputs: %d sequences, %d residues, %d requests of %d residues, %d closed-loop callers, one %d-sequence ingest per %v\n",
		len(base), totalResidues(base), len(queries), serveQueryLen, searchers, ingestBatchSeqs, tick)

	p := baseParams(1)
	var d *ingestDaemon
	stopDaemon := func() {
		if d != nil && d.srv != nil {
			d.srv.Close()
		}
	}
	_, err := e.setUp(func(dir string, ph phases) (func(), error) {
		d = &ingestDaemon{dir: filepath.Join(dir, "store")}
		err := ph.time("store.init_ms", func() (err error) { d.st, err = blast.InitStore(d.dir, base, p); return })
		if err != nil {
			return nil, err
		}
		var db *blast.Database
		if err = ph.time("blast.load_ms", func() (err error) { db, err = d.st.Database(); return }); err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		d.met = obs.NewServerMetrics(reg)
		d.srv = server.New(blast.NewSession(db, p), p, server.Config{Store: d.st, CompactAfter: ingestCompactAfter, Registry: reg})
		addr, err := d.srv.Start("127.0.0.1:0")
		d.url = "http://" + addr
		return stopDaemon, err
	})
	if err != nil {
		stopDaemon()
		return err
	}
	defer stopDaemon()

	// While the database changes under the searches only the shape of a
	// reply can be checked; the answers are checked at the end.
	check := func(s sample) error {
		st, err := replyStats(s.body)
		if err == nil && (st.QueriesAborted > 0 || st.Tasks == 0 || !bytes.Contains(s.body, []byte(`"completed":true`))) {
			err = fmt.Errorf("search did not complete: %+v", st)
		}
		return err
	}
	client := newClient(searchers)
	defer client.CloseIdleConnections()
	var next atomic.Int64
	var mu sync.Mutex
	var httpSelf, queueWait, searchMS []float64
	observe := func(idx int, t0, t1 time.Time, body []byte) {
		// request = queue wait + search, as the reply reports them, + the
		// HTTP hop, decode and encode, which is the request span's self time.
		req := e.tr.add("request", 0, idx, t0, t1)
		st, err := replyStats(body)
		if err != nil {
			return
		}
		q, s := int64(st.QueueWaitMS*1e6), int64(st.SearchMS*1e6)
		e.tr.fill("server.queue_wait", req, idx, t0, 0, q)
		e.tr.fill("server.search", req, idx, t0, q, s)
		mu.Lock()
		defer mu.Unlock()
		httpSelf = append(httpSelf, ms(t1.Sub(t0))-st.QueueWaitMS-st.SearchMS)
		queueWait, searchMS = append(queueWait, st.QueueWaitMS), append(searchMS, st.SearchMS)
	}

	w := &writer{done: make(chan struct{})}
	go w.run(e.tr, g, d.url+"/ingest", tick)

	plainSeg := func() segment { return closedSegment(client, d.url+"/search", bodies, &next, searchers, segDur, nil) }
	closedPhase(e, 1, plainSeg, check) // warm-up
	e.cal.forget()
	if !e.traced() {
		segs := closedPhase(e, 10, plainSeg, check)
		w.halt(e)
		st := reduceSegments(segs)
		e.set("wall.search_qps", st.qps)
		st = st.at(e.cal.speed())
		e.set("search_qps", st.qps)
		e.set("lat_p50_ms", st.p50)
		e.setTail("serve.lat_p95_ms", segs, 0.95)
		e.set("serve.ingest_p50_ms", median(w.lat))
	} else {
		tracedSeg := func() segment {
			return closedSegment(client, d.url+"/search", bodies, &next, searchers, segDur, observe)
		}
		var plain, traced []segment
		for i := 0; i < 3; i++ {
			plain = append(plain, closedPhase(e, 1, plainSeg, check)...)
			traced = append(traced, closedPhase(e, 1, tracedSeg, check)...)
		}
		w.halt(e)
		pst, tst := reduceSegments(plain), reduceSegments(traced)
		e.set("harness.trace_overhead_pct", 100*(pst.qps/tst.qps-1))
		e.setTail("serve.lat_p95_ms", plain, 0.95)
		e.set("server.queue_wait_ms", median(queueWait))
		e.set("server.search_ms", median(searchMS))
		e.set("server.http_overhead_ms", median(httpSelf))
		e.set("harness.unattributed_pct", 100*ratio(sum(httpSelf), sum(httpSelf)+sum(queueWait)+sum(searchMS)))
		e.set("serve.ingest_p50_ms", median(w.lat))
		e.set("store.ingest_p90_ms", quantile(w.lat, 0.90))
		if !supported(len(w.lat), 0.90) {
			fmt.Printf("note: %d ingests do not carry a p90\n", len(w.lat))
		}
		e.set("store.compactions", float64(w.compacts))
		e.set("store.deltas_max", float64(w.deltaMax))
		e.set("server.ingest_shed", float64(d.met.IngestsShed.Value()))
	}
	fmt.Printf("ingests: %d acknowledged, %d compactions, at most %d deltas\n", len(w.batches), w.compacts, w.deltaMax)

	// Final answers against a from-scratch database over the base and every
	// acknowledged batch; then the store must reopen to the same commit.
	all := append([]blast.Sequence(nil), base...)
	for _, b := range w.batches {
		all = append(all, b...)
	}
	rebuilt, err := blast.NewDatabase(all, baseParams(e.w))
	if err != nil {
		return fmt.Errorf("rebuilding from scratch: %w", err)
	}
	final := append([]string(nil), queries[:ingestFinalQueries/2]...)
	for i := 0; len(final) < ingestFinalQueries && i < len(w.batches); i++ {
		// half of the final queries are cut from ingested sequences
		s := w.batches[len(w.batches)-1-i][ingestBatchSeqs-1].Residues
		final = append(final, s[:min(len(s), serveQueryLen)])
	}
	want, err := expectedReplies(rebuilt, final)
	if err != nil {
		return err
	}
	got := make([]sample, len(final))
	for i, q := range final {
		status, body := post(client, d.url+"/search", searchBody(reqName(i), q))
		got[i] = sample{idx: i, status: status, body: body}
	}
	checkSamples(e, got, carries(e, want))
	if e.traced() {
		e.set("store.disk_bytes_per_residue", ratio(dirBytes(d.dir), float64(totalResidues(all))))
	}
	stopDaemon()
	e.attempted++
	info, err := blast.VerifyStore(d.dir)
	if err != nil {
		e.fail(1, "store does not verify after the run: %v", err)
	} else if info.ManifestSeq != w.lastSeq || info.NumSequences != len(all) {
		e.fail(1, "store verifies to seq %d with %d sequences, acknowledged seq %d with %d", info.ManifestSeq, info.NumSequences, w.lastSeq, len(all))
	}
	e.attempted++
	if st, err := blast.OpenStore(d.dir, p); err != nil {
		e.fail(1, "store does not reopen after the run: %v", err)
	} else if st.ManifestSeq() != w.lastSeq {
		e.fail(1, "store reopens to seq %d, acknowledged seq %d", st.ManifestSeq(), w.lastSeq)
	}
	if e.traced() {
		return scratchStore(e, base, w.batches, queries[:ingestFinalQueries])
	}
	return nil
}

// scratchStore times the store's own operations on a second store fed the
// same batches, with nothing else running: what an append, a view, a
// compaction and a reopen cost, and what eight outstanding deltas do to a
// search.
func scratchStore(e *env, base []blast.Sequence, batches [][]blast.Sequence, queries []string) error {
	if len(batches) < scratchDeltas {
		return fmt.Errorf("only %d batches were acknowledged, the scratch store needs %d", len(batches), scratchDeltas)
	}
	dir := filepath.Join(e.workdir, "scratch-store")
	p := baseParams(1)
	st, err := blast.InitStore(dir, base, p)
	if err != nil {
		return err
	}
	searchP50 := func(db *blast.Database) (float64, error) {
		var t []float64
		for _, q := range queries {
			t0 := time.Now()
			if _, err := db.SearchBatchCtx(context.Background(), []string{q}); err != nil {
				return 0, err
			}
			t = append(t, ms(time.Since(t0)))
		}
		return median(t), nil
	}
	var appendMS, viewMS []float64
	var db *blast.Database
	for _, b := range batches[:scratchDeltas] {
		runtime.GC()
		a, err := e.timed("store.append", func() error { _, err := st.Append(b); return err })
		if err != nil {
			return err
		}
		v, err := e.timed("store.view", func() (err error) { db, err = st.Database(); return })
		if err != nil {
			return err
		}
		appendMS, viewMS = append(appendMS, a), append(viewMS, v)
	}
	tiered, err := searchP50(db)
	if err != nil {
		return err
	}
	var reopened *blast.Store
	open, err := e.timed("store.open", func() (err error) { reopened, err = blast.OpenStore(dir, p); return })
	if err != nil {
		return err
	}
	compact, err := e.timed("store.compact", reopened.Compact)
	if err != nil {
		return err
	}
	if db, err = reopened.Database(); err != nil {
		return err
	}
	compacted, err := searchP50(db)
	if err != nil {
		return err
	}
	e.set("store.open_ms", open)
	e.set("store.compact_ms", compact)
	e.set("store.append_ms", median(appendMS))
	e.set("store.view_ms", median(viewMS))
	e.set("blast.tier_slowdown", ratio(tiered, compacted))
	e.set("server.ingest_overhead_ms", e.values["serve.ingest_p50_ms"]-median(appendMS)-median(viewMS))
	return nil
}

func dirBytes(dir string) float64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { // a file that vanished adds nothing
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n)
}
