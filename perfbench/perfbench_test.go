package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestSameSeedSameOpSequence(t *testing.T) {
	for _, w := range []analysisWorkload{exactDense, lanczosSparse} {
		for c := 0; c < 3; c++ {
			a := analysisCycle(w.templates, w.levels, 42, c)
			b := analysisCycle(w.templates, w.levels, 42, c)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("cycle %d differs between two draws with the same seed", c)
			}
			if other := analysisCycle(w.templates, w.levels, 43, c); reflect.DeepEqual(a, other) {
				t.Fatalf("cycle %d is the same for seeds 42 and 43", c)
			}
		}
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	e1, err := planServe(42, ref)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := planServe(42, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e1.hot, e2.hot) || !reflect.DeepEqual(e1.stored, e2.stored) {
		t.Fatal("hot or store set differs between two plans with the same seed")
	}
	for k := 0; k < serveClients; k++ {
		if !reflect.DeepEqual(e1.clientCycle(42, k, 5), e2.clientCycle(42, k, 5)) {
			t.Fatalf("client %d cycle differs between two plans with the same seed", k)
		}
	}
}

// Every seed runs the same mix: each cycle holds every template at every
// level once, so only the drawn inputs differ between seeds.
func TestCycleMixIsSeedIndependent(t *testing.T) {
	mix := func(cs []analysisCase) []string {
		var out []string
		for _, c := range cs {
			out = append(out, fmt.Sprintf("%s@%g", c.template, c.level))
		}
		sort.Strings(out)
		return out
	}
	for _, w := range []analysisWorkload{exactDense, lanczosSparse} {
		want := mix(analysisCycle(w.templates, w.levels, 1, 0))
		n := 0
		for _, tp := range w.templates {
			n += len(tp.levelsOr(w.levels))
		}
		if len(want) != n {
			t.Fatalf("cycle has %d ops, want %d", len(want), n)
		}
		for seed := uint64(2); seed < 6; seed++ {
			if got := mix(analysisCycle(w.templates, w.levels, seed, 3)); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: cycle mix %v, want %v", seed, got, want)
			}
		}
	}
}

func TestTailRule(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	v, pct, ok := tail(sorted)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("100 samples: tail %v at p%v (ok %v), want 90 at p90", v, pct, ok)
	}
	v, pct, ok = tail(sorted[:11])
	if !ok || v != 1 || pct != 100.0/11 {
		t.Fatalf("11 samples: tail %v at p%v, want 1 at p%v", v, pct, 100.0/11)
	}
	if _, _, ok := tail(sorted[:10]); ok {
		t.Fatal("10 samples leave none with 10 beyond it; want ok == false")
	}
	// Exactly tailBeyond samples lie above the reported value.
	for n := 11; n <= 100; n++ {
		v, _, _ := tail(sorted[:n])
		above := 0
		for _, x := range sorted[:n] {
			if x > v {
				above++
			}
		}
		if above != tailBeyond {
			t.Fatalf("n=%d: %d samples above the tail, want %d", n, above, tailBeyond)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{name: "op", iv: interval{d(0), d(100)}, parent: -1},
		{name: "a", iv: interval{d(10), d(30)}, parent: 0},
		{name: "b", iv: interval{d(20), d(50)}, parent: 0}, // overlaps a
		{name: "a", iv: interval{d(60), d(70)}, parent: 0},
		{name: "c", iv: interval{d(62), d(65)}, parent: 3},  // nested in the second a
		{name: "d", iv: interval{d(95), d(120)}, parent: 0}, // runs past the root
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"op": d(100) - d(40) - d(10) - d(5), // children cover [10,50), [60,70), [95,100)
		"a":  d(20) + d(10) - d(3),
		"b":  d(30),
		"c":  d(3),
		"d":  d(25),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	if c := coverage(interval{d(0), d(10)}, nil); c != 0 {
		t.Fatalf("coverage of no intervals = %v", c)
	}
}

func TestDistanceEvals(t *testing.T) {
	// t_mix 5: d(0) d(1) d(2) d(4) d(8) bracket, then d(6) d(5) bisect;
	// t_mix 8: the same bracket, then d(6) d(7).
	for tm, want := range map[int64]int{0: 1, 1: 2, 2: 3, 5: 7, 8: 7} {
		if got := distanceEvals(tm); got != want {
			t.Errorf("distanceEvals(%d) = %d, want %d", tm, got, want)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []def, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", what, len(declared), len(printed))
		}
		for i, m := range printed {
			if d := declared[i]; d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark prints %+v", what, i, d, m)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloads)
	}

	// The printed result carries exactly the declared names.
	r := newResult(&tally{attempted: 1}, endToEnd)
	if len(r.Metrics) != len(endToEnd) {
		t.Fatalf("result has %d end-to-end metrics, want %d", len(r.Metrics), len(endToEnd))
	}
	r = newResult(&tally{attempted: 1}, perLayer)
	for _, d := range doc.PerLayer {
		if _, ok := r.Metrics[d.Name]; !ok {
			t.Errorf("per-layer result lacks %s", d.Name)
		}
	}
}

// No generated input leaves the regime the reference outputs are trusted in.
func TestRegimeBound(t *testing.T) {
	var cases []analysisCase
	for _, w := range []analysisWorkload{exactDense, lanczosSparse} {
		cases = append(cases, universe(w.templates, w.levels)...)
	}
	cases = append(cases, universe(serveTemplates, serveLevels)...)
	for _, c := range cases {
		if bd := c.level * c.jitter; bd > regimeBound {
			t.Errorf("%s: β·ΔΦ = %g exceeds the regime bound %d", c.template, bd, regimeBound)
		}
	}
	for _, s := range simUniverse() {
		if s.level > regimeBound {
			t.Errorf("simulation %s: β·ΔΦ = %g exceeds the regime bound %d", specKey(s.spec), s.level, regimeBound)
		}
	}
}

// Every input a workload can generate has a reference entry.
func TestReferenceCoversEveryInput(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	gs := newGames()
	for _, w := range []analysisWorkload{exactDense, lanczosSparse} {
		all := universe(w.templates, w.levels)
		if err := gs.addAll(all); err != nil {
			t.Fatal(err)
		}
		for _, c := range all {
			if _, ok := ref.Analyses[analysisKey("core", c.spec, c.backend, gs.beta(c))]; !ok {
				t.Errorf("no reference for %s at β·ΔΦ %g", c.template, c.level*c.jitter)
			}
		}
	}
	e, err := planServe(1, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range e.all {
		if _, ok := ref.Analyses[e.refKey(c)]; !ok {
			t.Errorf("no served reference for %s at β·ΔΦ %g", c.template, c.level*c.jitter)
		}
	}
	for _, s := range e.sims {
		if _, ok := ref.Simulations[simKey(s.spec, s.level/e.gs.deltaPhi[specKey(s.spec)], s.seed)]; !ok {
			t.Errorf("no simulation reference for %s", specKey(s.spec))
		}
	}
}

// lanczos-sparse spans Lanczos bases from about 50 to about 100 vectors,
// so a re-orthogonalization change that trades operations for bytes shows
// at both ends.
func TestLanczosIterationSpan(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	gs := newGames()
	all := universe(lanczosSparse.templates, lanczosSparse.levels)
	if err := gs.addAll(all); err != nil {
		t.Fatal(err)
	}
	lo, hi := math.MaxInt, 0
	for _, c := range all {
		it := ref.Analyses[analysisKey("core", c.spec, c.backend, gs.beta(c))].Iters
		lo, hi = min(lo, it), max(hi, it)
	}
	if lo > 50 || hi < 100 {
		t.Fatalf("Lanczos iterations span %d–%d, want at least 50–100", lo, hi)
	}
}

// A short traced serve-mix run: both clients share the service, the HTTP
// client and the cold-key counter, so run this under -race too.
func TestServeMixShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a service and runs analyses")
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	e, err := setupServe(t.TempDir(), 7, true, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	var tl tally
	led, err := traceServe(e, 7, 0.5, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if tl.attempted == 0 || tl.failed != 0 {
		t.Fatalf("%d of %d ops failed: %v", tl.failed, tl.attempted, tl.errs)
	}
	if led.ops != tl.attempted {
		t.Fatalf("ledger holds %d ops, the run attempted %d", led.ops, tl.attempted)
	}
}
