// Command mirad is the long-running serving daemon over one corpus
// snapshot: it loads (or generates) a corpus once, pre-warms the scan
// views and per-dimension bitmap selection indexes, and serves
// concurrent JSON queries until shut down (DESIGN.md §15).
//
// Usage:
//
//	mirad [-addr :8080] [-in corpus/] [-format auto|csv|pack]
//	      [-small] [-days N] [-seed N]
//	      [-cache 1024] [-parallelism N] [-max-inflight 256] [-pprof]
//
// Endpoints:
//
//	GET /healthz              liveness probe
//	GET /v1/profile           whole-corpus fused profile
//	GET /v1/cohort?where=...  cohort profile via predicate pushdown;
//	                          the report field is bit-identical to
//	                          `mirareport -where` for the same predicate
//	GET /v1/experiments/{id}  one experiment's metrics/tables/figures
//	GET /v1/stats             cache, endpoint, index and runtime metrics
//
// Cohort responses cache in a sharded LRU keyed by the predicate's
// canonical form; concurrent identical queries collapse onto one
// computation. SIGINT/SIGTERM drain connections gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mirad:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	in := flag.String("in", "", "corpus directory written by miragen (empty = generate)")
	format := flag.String("format", "auto", "corpus format for -in: auto (prefer pack), csv, pack")
	small := flag.Bool("small", false, "generate the fast 30-day corpus")
	days := flag.Int("days", 0, "override days when generating")
	seed := flag.Int64("seed", 0, "override seed when generating")
	cacheEntries := flag.Int("cache", 1024, "cohort-response LRU capacity (entries)")
	parallelism := flag.Int("parallelism", 0, "worker bound per fused scan (0 = all cores; results are identical)")
	maxInflight := flag.Int("max-inflight", 256, "concurrently executing /v1 requests before shedding with 429")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain timeout")
	flag.Parse()

	env, err := experiments.OpenEnv(*in, *format, *days, *seed, *small, *parallelism, os.Stderr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mirad: corpus ready: %d jobs, %d events, %.1f days\n",
		env.D.JobView().N, env.D.EventView().N, env.D.Days())

	srv := serve.New(env, serve.Options{
		CacheEntries: *cacheEntries,
		MaxInflight:  *maxInflight,
		Parallelism:  *parallelism,
		Pprof:        *pprofFlag,
	})
	ws, err := srv.Warm()
	if err != nil {
		return fmt.Errorf("warm: %w", err)
	}
	fmt.Fprintf(os.Stderr, "mirad: warm in %v (%d index dims, %d index bytes)\n",
		ws.Duration.Round(time.Millisecond), ws.IndexDims, ws.IndexBytes)

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight connections.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "mirad: listening on %s\n", *addr)
		errc <- hs.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "mirad: shutting down, draining connections...")
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "mirad: bye")
	return nil
}
