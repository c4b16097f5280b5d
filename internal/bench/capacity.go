package bench

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/blast"
	"repro/internal/alphabet"
	"repro/internal/capsim"
	"repro/internal/obs"
	"repro/internal/reqtrace"
	"repro/internal/seqgen"
	"repro/internal/server"
)

// capacityOutcome carries one validation run's measured-vs-predicted pairs:
// what the live daemon did under a replayed overload, and what the
// discrete-event model predicted for the same workload from a fit to that
// run's service times. CapacityValidation renders it; the gate test asserts
// on it.
type capacityOutcome struct {
	Measured  *reqtrace.ReplayResult
	Predicted *capsim.Result
	Fit       *capsim.Dist
	CalibReqs int
	OverReqs  int
	OfferedPS float64 // overload arrival rate, req/s
}

const (
	capQueueBound  = 4
	capConcurrency = 1
)

// runCapacityValidation closes the trace → fit → predict loop end to end
// against a *live* daemon: it serves a seqgen database through the real
// serving core (internal/server) with a deliberately tight queue, replays a
// calm calibration workload to trace service times and size the overload,
// replays an overload workload — open loop, ~3x the measured capacity —
// fits the capsim service distribution from the records projected from that
// run's traces, and compares the model's predicted shed rate and latency
// quantiles against what the daemon actually did.
func runCapacityValidation(s Scale) (*capacityOutcome, error) {
	// A database sized to make one search take tens of milliseconds: long
	// enough that service time dominates HTTP transport overhead (so the
	// replayer can actually deliver a 3x-capacity arrival rate) and
	// queueing dominates scheduling noise, short enough that two replayed
	// workloads finish in seconds.
	g := seqgen.New(seqgen.UniprotProfile(), s.Seed)
	nSeqs := 1500
	if s.UniprotSeqs > nSeqs {
		nSeqs = s.UniprotSeqs
	}
	if nSeqs > 4000 {
		nSeqs = 4000
	}
	raw := g.Database(nSeqs)
	seqs := make([]blast.Sequence, len(raw))
	for i := range raw {
		seqs[i] = blast.Sequence{Name: fmt.Sprintf("sub%04d", i), Residues: alphabet.String(raw[i])}
	}
	p := blast.DefaultParams()
	p.Threads = s.threads()
	db, err := blast.NewDatabase(seqs, p)
	if err != nil {
		return nil, err
	}
	ses := blast.NewSession(db, p)

	// One direct search with a replay-shaped synthetic query roughs out the
	// rate scale for the calibration run; the overload rate is then set
	// precisely from the *fitted* service distribution, not this probe.
	probeQ := make([]byte, 320)
	for i := range probeQ {
		probeQ[i] = "ACDEFGHIKLMNPQRSTVWY"[(int(s.Seed)+i*7)%20]
	}
	probeStart := time.Now()
	if _, err := db.SearchBatchCtx(context.Background(), []string{string(probeQ)}); err != nil {
		return nil, err
	}
	service := time.Since(probeStart)
	if service < time.Millisecond {
		service = time.Millisecond
	}
	capacityPerSec := float64(time.Second) / float64(service) * capConcurrency
	const qlen = 320
	const deadlineMS = int64(30_000)

	runServer := func(workload []*reqtrace.Record) ([]*reqtrace.Record, *reqtrace.ReplayResult, error) {
		var traceBuf bytes.Buffer
		srv := server.New(ses, p, server.Config{
			Queue:       capQueueBound,
			Concurrency: capConcurrency,
			Registry:    obs.NewRegistry(),
			Tracer:      reqtrace.NewTracer("mublastpd", &traceBuf),
		})
		bound, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		res, err := reqtrace.Replay(context.Background(), reqtrace.ReplayConfig{
			Target: "http://" + bound, Seed: s.Seed,
		}, workload)
		if err != nil {
			srv.Close()
			return nil, nil, err
		}
		// Drain before reading the buffer: a handler may still be between
		// answering the client and flushing its trace.
		drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(drainCtx, time.Second); err != nil {
			return nil, nil, err
		}
		recs, err := reqtrace.ReadRecords(&traceBuf)
		return recs, res, err
	}

	// Calibration: ~40% load, no queueing to speak of — the traced
	// "search" spans are clean service-time samples, which set the overload
	// rate.
	calibWL := reqtrace.SynthWorkload(40, 0.4*capacityPerSec, qlen, deadlineMS, s.Seed+1)
	calibRecs, _, err := runServer(calibWL)
	if err != nil {
		return nil, fmt.Errorf("calibration run: %w", err)
	}
	calib, err := capsim.FitSpan(calibRecs, "search", reqtrace.OutcomeOK)
	if err != nil {
		return nil, fmt.Errorf("fitting service distribution: %w", err)
	}

	// Overload: ~3x capacity, open loop, so the bounded queue must shed.
	// Capacity comes from the fitted mean service time — the probe's single
	// cold search would understate it.
	offered := 3 * float64(time.Second) / calib.Mean() * capConcurrency
	overWL := reqtrace.SynthWorkload(150, offered, qlen, deadlineMS, s.Seed+2)
	overRecs, measured, err := runServer(overWL)
	if err != nil {
		return nil, fmt.Errorf("overload run: %w", err)
	}

	// Predict the same workload through the model: identical arrival
	// offsets and deadlines, service drawn from a fit to the overload run's
	// own "search" spans. Those were served on the same host at the same
	// moment as the sheds and latencies they predict; a service fit from the
	// calibration run would carry whatever else the host was running then
	// (a parallel test package, say) into the prediction.
	dist, err := capsim.FitSpan(overRecs, "search", reqtrace.OutcomeOK)
	if err != nil {
		return nil, fmt.Errorf("fitting service distribution: %w", err)
	}
	sim, err := capsim.Run(capsim.Config{
		Queue:       capQueueBound,
		Concurrency: capConcurrency,
		Service:     dist,
		Seed:        s.Seed,
	}, capsim.WorkloadFromRecords(overRecs))
	if err != nil {
		return nil, err
	}
	return &capacityOutcome{
		Measured: measured, Predicted: sim, Fit: dist,
		CalibReqs: len(calibWL), OverReqs: len(overWL), OfferedPS: offered,
	}, nil
}

// CapacityValidation runs the trace → fit → predict validation and renders
// the predicted-vs-measured table for EXPERIMENTS.md. The error bands the
// notes state are asserted by the capacity gate test.
func CapacityValidation(s Scale) (*Table, error) {
	out, err := runCapacityValidation(s)
	if err != nil {
		return nil, err
	}
	ms := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
	t := &Table{
		Title:   "capsim validation: measured overload vs discrete-event prediction",
		Columns: []string{"metric", "measured", "predicted", "err"},
	}
	addRate := func(name string, got, want float64) {
		t.AddRow(name, fmt.Sprintf("%.3f", got), fmt.Sprintf("%.3f", want), fmt.Sprintf("%.3f abs", abs(got-want)))
	}
	addMS := func(name string, got, want float64) {
		relErr := 0.0
		if got > 0 {
			relErr = abs(got-want) / got
		}
		t.AddRow(name, fmt.Sprintf("%.1f ms", got), fmt.Sprintf("%.1f ms", want), fmt.Sprintf("%.0f%% rel", relErr*100))
	}
	m, p := out.Measured, out.Predicted
	addRate("shed rate", m.ShedRate(), p.ShedRate())
	addRate("timeout rate", m.TimeoutRate(), p.TimeoutRate())
	addMS("p50 latency", ms(m.LatencyQuantile(0.50)), ms(p.LatencyQuantile(0.50)))
	addMS("p95 latency", ms(m.LatencyQuantile(0.95)), ms(p.LatencyQuantile(0.95)))
	addMS("p99 latency", ms(m.LatencyQuantile(0.99)), ms(p.LatencyQuantile(0.99)))
	t.Note("server: queue %d, concurrency %d; calibration %d req at 40%% load; overload %d req offered at %.0f req/s (~3x capacity)",
		capQueueBound, capConcurrency, out.CalibReqs, out.OverReqs, out.OfferedPS)
	t.Note("service fit: %d samples from the overload run's traced 'search' spans, mean %.1f ms, p95 %.1f ms",
		out.Fit.Len(), out.Fit.Mean()/float64(time.Millisecond), ms(out.Fit.Quantile(0.95)))
	t.Note("bands: |shed rate err| <= 0.15 absolute, p95 within 50%% relative — asserted by TestCapacityModelTracksMeasuredOverload")
	return t, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
