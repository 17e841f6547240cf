package bench

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"logitdyn/internal/spec"
	"logitdyn/internal/store"
	"logitdyn/internal/sweep"
)

func quickCfg() Config { return Config{Seed: 1, Quick: true, Eps: 0.25} }

func mustFind(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	return e
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func formatBytes(t *testing.T, tab *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.Format(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A second run of an experiment against a warm store performs ZERO new
// analyses (the counter check) and still emits identical table bytes —
// the issue's acceptance criterion at the experiment level.
func TestExperimentWarmStoreRerunZeroAnalyses(t *testing.T) {
	st := openStore(t)
	x := &Executor{Store: st}
	e := mustFind(t, "E3")

	tab1, stats1, err := x.Run(context.Background(), e, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Analyzed != stats1.Unique || stats1.Analyzed == 0 {
		t.Fatalf("cold stats = %+v, want every unique point analyzed", stats1)
	}

	tab2, stats2, err := x.Run(context.Background(), e, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Analyzed != 0 {
		t.Fatalf("warm rerun analyzed %d points, want 0 (stats %+v)", stats2.Analyzed, stats2)
	}
	if stats2.StoreHits != stats1.Unique {
		t.Fatalf("warm rerun store hits = %d, want %d", stats2.StoreHits, stats1.Unique)
	}
	if !bytes.Equal(formatBytes(t, tab1), formatBytes(t, tab2)) {
		t.Fatal("warm rerun produced different table bytes")
	}
}

// Overlapping points across experiments are computed once ever: E3 and
// E12 both analyze the (3,2)-coordination game at β ∈ {0, 0.5, 1, 2}, so
// after E3 has run, E12 only pays for its two extra β values.
func TestCrossExperimentPointSharing(t *testing.T) {
	st := openStore(t)
	x := &Executor{Store: st}

	_, stats3, err := x.Run(context.Background(), mustFind(t, "E3"), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if stats3.Analyzed != 4 {
		t.Fatalf("quick E3 analyzed %d points, want 4", stats3.Analyzed)
	}

	_, stats12, err := x.Run(context.Background(), mustFind(t, "E12"), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if stats12.StoreHits != 4 || stats12.Analyzed != 2 {
		t.Fatalf("E12 after E3: stats = %+v, want 4 store hits + 2 analyses", stats12)
	}
}

// Killing an experiment mid-run (context cancel between points — the
// mechanism SIGINT uses in cmd/experiments) and rerunning against the
// same store completes only the missing points and converges to the
// byte-identical table of an uninterrupted run.
func TestExperimentResumeAfterKill(t *testing.T) {
	cfg := quickCfg()
	e := mustFind(t, "E6")

	// Reference: uninterrupted run on its own store.
	ref, refStats, err := (&Executor{Store: openStore(t)}).Run(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after the first completed analysis. The
	// segment grid is driven directly so the kill lands mid-segment;
	// Workers=1 makes the pre-kill count deterministic.
	st := openStore(t)
	segs, err := e.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	r := &sweep.Runner{
		Eval:    sweep.DirectEvalScratch(st, nil, nil),
		Workers: 1,
		OnRow: func(sweep.Row) {
			if done.Add(1) == 1 {
				cancel()
			}
		},
	}
	if _, stats, err := r.Run(ctx, &segs[0].Grid); err == nil {
		t.Fatalf("killed run reported no error (stats %+v)", stats)
	}

	// Resume through the normal executor path.
	got, gotStats, err := (&Executor{Store: st}).Run(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gotStats.StoreHits == 0 {
		t.Fatalf("resume hit the store 0 times (stats %+v): nothing was persisted before the kill", gotStats)
	}
	if gotStats.Analyzed+gotStats.StoreHits != refStats.Unique {
		t.Fatalf("resume stats %+v don't partition the %d unique points", gotStats, refStats.Unique)
	}
	if !bytes.Equal(formatBytes(t, ref), formatBytes(t, got)) {
		t.Fatal("resumed experiment differs from uninterrupted run")
	}
}

// A failed point fails the whole experiment with a pointed error — a
// theorem table with holes must never render.
func TestExperimentFailedPointFailsRun(t *testing.T) {
	e := Experiment{
		ID:    "EX",
		Title: "broken",
		Plan: func(cfg Config) ([]Segment, error) {
			return []Segment{{Name: "bad", Grid: grid(
				// Ring needs n >= 3: spec validation fails the point.
				specOf("ising", "ring", 1), []float64{0.5}, 0.25)}}, nil
		},
		Derive: func(cfg Config, res *Results) (*Table, error) {
			t := &Table{ID: "EX", Title: "broken", Columns: []string{"x"}}
			return t, nil
		},
	}
	if _, _, err := (&Executor{}).Run(context.Background(), e, quickCfg()); err == nil {
		t.Fatal("experiment with a failed point reported success")
	}
}

// specOf is a test shorthand for graph-family specs.
func specOf(game, graph string, n int) spec.Spec {
	return spec.Spec{Game: game, Graph: graph, N: n, Delta1: 1}
}
