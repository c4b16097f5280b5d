package server

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/reqtrace"
	"repro/internal/sigctx"
)

// Daemon is what a serving process runs: *Server, or *router.Frontend.
type Daemon interface {
	Start(addr string) (string, error)
	Drain(ctx context.Context, grace time.Duration) error
}

// RegisterFlags registers the command-line flags mublastpd and mublastpr
// share on the default flag set (name is the daemon's, addr its default
// listen address) and returns the life of the process after flag.Parse: arm
// -faultspec, open the -trace sink (the one per-request log), let build
// load the database and construct the daemon — from a Config carrying the
// flags' request bounds, the trace sink and a stderr logger; detail is what
// the daemon says about itself in the "serving on" line — start it on
// -addr, bring up the -debug-addr server, wait for SIGINT/SIGTERM, and
// drain for -drain-grace. A second signal force-exits. The search parameters are the searching daemon's own flags:
// a router searches nothing itself.
func RegisterFlags(name, addr string) func(build func(cfg Config) (d Daemon, detail string, err error)) error {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, name+": "+format+"\n", args...)
	}
	cfg := Config{Registry: obs.Default, Logf: logf}
	flag.DurationVar(&cfg.DefaultTimeout, "timeout", 30*time.Second, "default per-request deadline")
	var (
		listen     = flag.String("addr", addr, "listen address (use :0 for an ephemeral port)")
		drainGrace = flag.Duration("drain-grace", 10*time.Second, "time in-flight searches get to finish on shutdown before partial-result flush")
		debugAddr  = flag.String("debug-addr", "", "also serve /metrics, /debug/vars and /debug/pprof/ on this address (e.g. :6060), separate from -addr")
		tracePath  = flag.String("trace", "", "append one JSONL trace tree per request (edge span down to the per-query stage spans) to this file")
		faultSpec  = flag.String("faultspec", "", "arm fault-injection sites, e.g. 'server.admit=error@0.1' or 'router.rpc=error@0.1' (testing aid)")
		faultSeed  = flag.Uint64("faultseed", 1, "seed for probabilistic -faultspec clauses")
	)
	return func(build func(Config) (Daemon, string, error)) error {
		if *faultSpec != "" {
			if err := faultinject.Enable(*faultSpec, *faultSeed); err != nil {
				return err
			}
			defer faultinject.Disable()
			logf("fault injection armed: %s (seed %d)", *faultSpec, *faultSeed)
		}
		if *tracePath != "" {
			tracer, err := reqtrace.NewTracerFile(name, *tracePath)
			if err != nil {
				return fmt.Errorf("opening trace sink: %w", err)
			}
			defer tracer.Close()
			cfg.Tracer = tracer
			logf("tracing requests to %s", *tracePath)
		}

		d, detail, err := build(cfg)
		if err != nil {
			return err
		}
		bound, err := d.Start(*listen)
		if err != nil {
			return err
		}
		if *debugAddr != "" {
			dbg, err := obs.Serve(*debugAddr, obs.Default)
			if err != nil {
				return err
			}
			logf("debug server on %s", dbg.Addr)
			defer dbg.ShutdownTimeout(2 * time.Second)
		}
		logf("serving on %s (%s)", bound, detail)

		// First signal: graceful drain (announced). Second signal: sigctx
		// force-exits with its distinct code — the drain can be escalated past.
		ctx, stop := sigctx.WithForcedExit(context.Background(), func(sig os.Signal) {
			logf("%v received, draining (grace %v; signal again to force exit)", sig, *drainGrace)
		})
		defer stop()
		<-ctx.Done()

		drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace+5*time.Second)
		defer cancel()
		if err := d.Drain(drainCtx, *drainGrace); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		logf("drained, exiting")
		return nil
	}
}
