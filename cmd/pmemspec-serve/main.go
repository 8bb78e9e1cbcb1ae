// Command pmemspec-serve is the simulation daemon: an HTTP/JSON service
// that accepts experiment grids (designs × workloads × configs × seeds),
// fans their cells out onto the harness worker pool, and serves every
// completed cell from a content-addressed result cache keyed by the
// cell's inputs plus the simulator's code version. Because the simulator
// is deterministic, resubmitting a grid is free: the second run is all
// cache hits, byte-identical to the first.
//
// Endpoints:
//
//	POST /v1/jobs            submit a grid; 202 + job id, 429 when the
//	                         queue bound is exceeded (Retry-After set)
//	GET  /v1/jobs/{id}       job status with per-cell progress;
//	                         ?stream=1 follows progress as NDJSON
//	GET  /v1/results/{key}   one cell's metrics snapshot;
//	                         ?format=trace extracts its Chrome trace
//	GET  /v1/metrics         daemon counters as a metrics snapshot
//	GET  /v1/version         the cache-key code-version stamp
//
// SIGINT/SIGTERM drains: in-flight jobs finish (bounded by
// -drain-timeout, after which their kernels are cancelled), new jobs
// get 503.
//
// Usage:
//
//	pmemspec-serve -addr :8080 -workers 8 -queue 1024 -cache-mb 64 \
//	    -cache-dir /var/cache/pmemspec -cell-timeout 5m
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pmemspec/internal/metrics"
	"pmemspec/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		workers      = flag.Int("workers", 0, "simulation worker goroutines (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 1024, "max admitted-but-unfinished cells before 429")
		cacheMB      = flag.Int64("cache-mb", 64, "in-memory result cache budget in MiB")
		cacheDir     = flag.String("cache-dir", "", "spill results to this directory (survives restarts)")
		cellTimeout  = flag.Duration("cell-timeout", 5*time.Minute, "default per-job wall-clock bound")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown grace before in-flight kernels are cancelled")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address")
	)
	flag.Parse()

	if *debugAddr != "" {
		// A requested-but-unbindable debug listener is a fatal
		// misconfiguration, not a warning: silently running without
		// profiling defeats the point of asking for it.
		dAddr, closer, err := metrics.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-serve: debug-addr:", err)
			os.Exit(1)
		}
		defer closer.Close()
		fmt.Fprintf(os.Stderr, "pmemspec-serve: debug endpoint on http://%s/debug/pprof/\n", dAddr)
	}

	srv, err := serve.NewServer(serve.Config{
		Workers:        *workers,
		QueueCells:     *queue,
		CacheBytes:     *cacheMB << 20,
		CacheDir:       *cacheDir,
		DefaultTimeout: *cellTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-serve:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-serve: listen:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// The resolved address on stdout is the machine-readable readiness
	// line: -addr :0 picks a free port and smoke harnesses parse this.
	fmt.Printf("pmemspec-serve: listening on %s (version %s)\n", ln.Addr(), srv.Version())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "pmemspec-serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // second signal kills immediately instead of racing the drain

	fmt.Fprintln(os.Stderr, "pmemspec-serve: draining")
	httpCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting connections first, then drain the simulation jobs;
	// in-flight status polls still complete under the same grace.
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "pmemspec-serve: http shutdown:", err)
	}
	drainCtx, cancel2 := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel2()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-serve: drain timed out; in-flight cells cancelled")
	}
	fmt.Fprintln(os.Stderr, "pmemspec-serve: bye")
}
