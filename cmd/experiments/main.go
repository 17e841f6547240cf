// Command experiments regenerates the paper-reproduction tables (the
// E1–E15 registry in internal/bench). Each experiment prints measured
// mixing times alongside the closed-form bounds its theorem predicts.
//
// Every experiment runs through the sweep engine: with -store, analyzed
// points persist in the shared content-addressed report store, so a killed
// run resumes where it stopped when re-invoked, a warm rerun regenerates
// every table byte-identically with zero new analyses, and points shared
// across experiments (or with logitdynd/logitsweep) are computed once
// ever.
//
// Usage:
//
//	experiments [-id E4,E11 | -id all] [-quick] [-seed 1] [-eps 0.25]
//	            [-store dir] [-csv dir] [-workers n]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"logitdyn/internal/bench"
	"logitdyn/internal/cluster"
	"logitdyn/internal/obs"
	"logitdyn/internal/scratch"
	"logitdyn/internal/service"
	"logitdyn/internal/store"
	"logitdyn/internal/sweep"
)

// idRange renders the registry's span ("E1..E15") from the registry
// itself, so usage strings can never go stale against new experiments.
func idRange() string {
	all := bench.All()
	if len(all) == 0 {
		return "none registered"
	}
	return all[0].ID + ".." + all[len(all)-1].ID
}

func main() {
	var (
		ids         = flag.String("id", "all", "comma-separated experiment IDs or 'all'")
		list        = flag.Bool("list", false, "list registered experiments and exit")
		quick       = flag.Bool("quick", false, "small grids for a fast run")
		seed        = flag.Uint64("seed", 1, "base RNG seed")
		eps         = flag.Float64("eps", 0.25, "total-variation target ε")
		csv         = flag.String("csv", "", "optional directory for per-experiment CSV output")
		storeDir    = flag.String("store", "", "persistent report-store director(ies) shared with logitdynd/logitsweep; comma-separated directories shard by consistent hash (empty = run everything cold, keep nothing)")
		storeMax    = flag.Int64("storemax", 0, "report-store size budget in bytes per shard (0 = unbounded)")
		storeMaxAge = flag.Duration("storemaxage", 0, "report-store age budget: entries older than this are evicted even under the byte budget (0 = keep forever)")
		workers     = flag.Int("workers", 0, "worker cap for ALL parallel stages (sets GOMAXPROCS; 0 = all cores); never changes table entries")
		logFormat   = flag.String("logformat", "text", "structured log format on stderr: text or json")
		logLevel    = flag.String("loglevel", "info", "log level: debug, info, warn or error")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	if *workers > 0 {
		// The default worker budget everywhere is GOMAXPROCS, so capping it
		// here bounds every experiment's parallelism, not just the stages
		// that take an explicit budget. Results are worker-count-invariant
		// by the linalg determinism contract.
		runtime.GOMAXPROCS(*workers)
	}
	cfg := bench.Config{Seed: *seed, Quick: *quick, Eps: *eps, Workers: *workers}
	var selected []bench.Experiment
	if *ids == "all" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown id %q (try %s)\n", id, idRange())
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	exec := &bench.Executor{Scratch: scratch.NewPool()}
	if *storeDir != "" {
		st, err := cluster.OpenFromFlags(*storeDir, store.Options{MaxBytes: *storeMax, MaxAge: *storeMaxAge}, "", 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		logger.Info("store open", "dir", *storeDir, "entries", st.Metrics().Entries)
		// One worker-token pool bounds the whole run, exactly like the
		// daemon and logitsweep: each in-flight point holds one token and
		// borrows idle ones for its mat-vecs, at sweep class — the same
		// accounting the daemon's background points use.
		exec.Store = st
		exec.Pool = service.NewPool(*workers).ForClass(service.ClassSweep)
	}

	// Interrupts cancel cleanly between points; with -store, completed
	// points are already persisted, so rerunning the same command resumes
	// and reproduces the tables byte-identically.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var total sweep.RunStats
	for _, e := range selected {
		tab, stats, err := exec.Run(ctx, e, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		total.Add(stats)
		logger.Debug("experiment done",
			"id", e.ID, "points", stats.Points, "analyzed", stats.Analyzed,
			"store_hits", stats.StoreHits, "cache_hits", stats.CacheHits)
		if err := tab.Format(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if *csv != "" {
			if err := os.MkdirAll(*csv, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			f, err := os.Create(filepath.Join(*csv, e.ID+".csv"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			if err := tab.CSV(f); err != nil {
				f.Close()
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			f.Close()
		}
	}
	// The run summary goes to stderr so table output stays byte-stable; a
	// warm -store rerun reports analyzed=0. The attr order is load-bearing:
	// CI greps the text rendering for "analyzed=N store_hits=M".
	logger.Info("run complete",
		"points", total.Points, "unique", total.Unique,
		"analyzed", total.Analyzed, "store_hits", total.StoreHits)
}
