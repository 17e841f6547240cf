// Command logitdynd is the long-running analysis daemon: it serves the
// internal/service HTTP JSON API (canonical game hashing, two-tier report
// cache — in-memory LRU over the persistent content-addressed store —
// singleflight deduplication, bounded worker pool, async sweep jobs) so
// many callers share one spectral analysis per distinct (game, β) pair,
// and so those analyses survive restarts.
//
// The persistent store scales out two ways: -store takes comma-separated
// directories sharded by consistent hash, and -peers names sibling daemons
// whose stores answer local misses (checksum re-verified, replicated
// read-through) before anything is recomputed.
//
// Example:
//
//	logitdynd -addr :8080 -cache 512 -workers 4 -store /var/lib/logitdyn/store
//	logitdynd -addr :8081 -store /var/lib/logitdyn/store2 -peers http://localhost:8080
//	curl -s localhost:8080/v1/analyze -d '{"spec":{"game":"doublewell","n":6,"c":2,"delta1":1},"beta":1.5}'
//	curl -s localhost:8080/v1/sweeps -d '{"axes":{"game":["doublewell"],"n":[8,10],"beta":{"from":0.5,"to":2,"steps":4}},"base":{"c":2,"delta1":1}}'
//	curl -s 'localhost:8080/metrics?format=prometheus'
//	curl -s localhost:8080/v1/traces
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"logitdyn/internal/cluster"
	"logitdyn/internal/journal"
	"logitdyn/internal/obs"
	"logitdyn/internal/service"
	"logitdyn/internal/spec"
	"logitdyn/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheSize := flag.Int("cache", 256, "report-cache capacity (reports)")
	workers := flag.Int("workers", 0, "service-wide worker-token budget: bounds request concurrency and intra-request parallelism together (0 = GOMAXPROCS)")
	maxBatch := flag.Int("maxbatch", 256, "max items per batch request")
	maxProfiles := flag.Int("maxprofiles", 0, "max profile-space size per request on the dense backend (0 = default)")
	maxSparseProfiles := flag.Int("maxsparseprofiles", 0, "max profile-space size per request on the sparse/matfree backends (0 = default)")
	maxBeta := flag.Float64("maxbeta", 0, "max inverse noise β per request (0 = default)")
	storeDir := flag.String("store", "", "persistent report-store director(ies): the second cache tier, shared with logitsweep; comma-separated directories shard by consistent hash (empty = memory-only)")
	storeMax := flag.Int64("storemax", 0, "report-store size budget in bytes per shard; LRU entries are evicted above it (0 = unbounded)")
	storeMaxAge := flag.Duration("storemaxage", 0, "report-store age budget: entries older than this since last write are evicted even under the byte budget (0 = keep forever)")
	peers := flag.String("peers", "", "comma-separated sibling daemon base URLs (http://host:port); local store misses are answered from a peer's store before recomputing, with read-through replication")
	peerTimeout := flag.Duration("peertimeout", cluster.DefaultPeerTimeout, "per-fetch deadline for peer store lookups; a slow peer degrades to recompute")
	maxSweepPoints := flag.Int("maxsweeppoints", 0, "max grid points per /v1/sweeps job (0 = default)")
	maxSweepWorkers := flag.Int("maxsweepworkers", 0, "max workers one sweep job may fan out to, below the pool budget (0 = full budget)")
	maxQueue := flag.Int("maxqueue", 0, "admission threshold: refuse work with 429 + Retry-After while more than this many requests wait for worker tokens (0 = unbounded queue)")
	journalDir := flag.String("journal", "", "sweep-job journal directory: queued/running sweeps are recorded there and resumed on restart (empty = no journal)")
	streamBuffer := flag.Int("streambuffer", 0, "per-subscriber event buffer on streaming endpoints; a subscriber that falls this far behind is dropped as lagged (0 = default)")
	logFormat := flag.String("logformat", "text", "structured log format: text or json")
	logLevel := flag.String("loglevel", "info", "log level: debug, info, warn or error")
	slowReq := flag.Duration("slowreq", 5*time.Second, "log a warning for requests at least this slow (0 = never)")
	traceRing := flag.Int("tracering", obs.DefaultRingSize, "recent traces retained for /v1/traces (0 = default)")
	noObs := flag.Bool("noobs", false, "disable tracing and stage histograms entirely")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "logitdynd: %v\n", err)
		os.Exit(2)
	}

	limits := spec.DefaultLimits()
	if *maxProfiles > 0 {
		limits.MaxProfiles = *maxProfiles
	}
	if *maxSparseProfiles > 0 {
		limits.MaxSparseProfiles = *maxSparseProfiles
	}
	if *maxBeta > 0 {
		limits.MaxBeta = *maxBeta
	}
	st, err := cluster.OpenFromFlags(*storeDir, store.Options{MaxBytes: *storeMax, MaxAge: *storeMaxAge}, *peers, *peerTimeout)
	if err != nil {
		logger.Error("store open failed", "dir", *storeDir, "err", err.Error())
		os.Exit(1)
	}
	if st != nil {
		m := st.Metrics()
		logger.Info("report store open",
			"dir", *storeDir, "shards", len(cluster.SplitList(*storeDir)),
			"peers", len(cluster.SplitList(*peers)),
			"entries", m.Entries, "bytes", m.SizeBytes)
	}
	var jl *journal.Journal
	if *journalDir != "" {
		jl, err = journal.Open(*journalDir)
		if err != nil {
			logger.Error("journal open failed", "dir", *journalDir, "err", err.Error())
			os.Exit(1)
		}
		logger.Info("sweep journal open", "dir", *journalDir, "pending", jl.Len())
	}
	observer := obs.New(*traceRing)
	if *noObs {
		observer = obs.Disabled()
	}
	svc := service.New(service.Config{
		CacheSize:       *cacheSize,
		Workers:         *workers,
		MaxBatch:        *maxBatch,
		MaxSweepPoints:  *maxSweepPoints,
		MaxSweepWorkers: *maxSweepWorkers,
		MaxQueue:        *maxQueue,
		StreamBuffer:    *streamBuffer,
		Limits:          limits,
		Store:           st,
		Journal:         jl,
		Obs:             observer,
		Logger:          logger,
		SlowRequest:     *slowReq,
	})
	// Resume journaled sweeps before the listener opens: replayed jobs
	// re-enter the serving path through the warm store, so a daemon killed
	// mid-sweep finishes only the missing points.
	if replayed := svc.ReplayJournal(); replayed > 0 {
		logger.Info("journal replayed", "jobs", replayed)
	}

	var pprofSrv *http.Server
	if *pprofAddr != "" {
		// pprof gets its own mux on its own listener: profiling stays
		// opt-in and off the public API surface. Bind synchronously so a
		// taken port is a startup failure, not a log line nobody reads, and
		// keep the server so the drain path can shut it down with the API.
		ln, lerr := net.Listen("tcp", *pprofAddr)
		if lerr != nil {
			logger.Error("pprof listen failed", "addr", *pprofAddr, "err", lerr.Error())
			os.Exit(1)
		}
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Handler: pm, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", ln.Addr().String())
			if perr := pprofSrv.Serve(ln); perr != nil && perr != http.ErrServerClosed {
				logger.Error("pprof server failed", "err", perr.Error())
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("logitdynd listening",
		"addr", *addr, "cache", *cacheSize, "workers", *workers,
		"maxprofiles", limits.MaxProfiles, "maxsparseprofiles", limits.MaxSparseProfiles,
		"store", *storeDir, "observability", observer.Enabled())

	select {
	case err := <-errc:
		logger.Error("server failed", "err", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}

	// Drain: record what was in flight when the signal landed, then time
	// how long the graceful shutdown took to let it finish.
	inFlight := svc.Metrics().Work.InFlight
	logger.Info("shutdown signal received", "in_flight", inFlight)
	drainStart := time.Now()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown failed",
			"err", err.Error(), "drain_ms", float64(time.Since(drainStart).Nanoseconds())/1e6)
		os.Exit(1)
	}
	// The pprof listener rides the same drain: before this it simply leaked
	// past SIGINT, keeping its port bound until the process died.
	if pprofSrv != nil {
		if err := pprofSrv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("pprof shutdown failed", "err", err.Error())
		}
	}
	logger.Info("drained and stopped",
		"in_flight_at_signal", inFlight,
		"drain_ms", float64(time.Since(drainStart).Nanoseconds())/1e6)
}
