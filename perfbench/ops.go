package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"logitdyn/internal/game"
	"logitdyn/internal/mixing"
	"logitdyn/internal/spec"
)

// gen is the benchmark's own splitmix64 stream. The op sequence depends
// only on --seed and the stream number, never on the program's own
// random-number code, so a change to that code cannot change the inputs.
type gen struct{ s uint64 }

func newGen(seed, stream uint64) *gen {
	g := &gen{s: seed ^ 0x6a09e667f3bcc908}
	g.s ^= g.next() + stream*0x9e3779b97f4a7c15
	return g
}

func (g *gen) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n); the modulo bias is below 2^-50 for the
// small n used here.
func (g *gen) intn(n int) int { return int(g.next() % uint64(n)) }

// shuffle permutes n items in place (Fisher–Yates).
func (g *gen) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, g.intn(i+1))
	}
}

// template is one game shape a workload draws from. Seeds, when set, lists
// the game seeds a random family is drawn with; levels, when set, replaces
// the workload's β·ΔΦ levels for this template.
type template struct {
	name    string
	spec    spec.Spec
	backend string
	seeds   []uint64
	levels  []float64
}

// levelsOr is the template's β·ΔΦ levels, or def when it sets none.
func (t template) levelsOr(def []float64) []float64 {
	if len(t.levels) > 0 {
		return t.levels
	}
	return def
}

// analysisCase is one (game, β) analysis input before β is resolved. β is
// level·jitter/ΔΦ, so level is the β·ΔΦ the op runs at.
type analysisCase struct {
	template string
	spec     spec.Spec
	backend  string
	level    float64
	jitter   float64
}

// jitters widen each β·ΔΦ level into three nearby inputs.
var jitters = []float64{0.95, 1, 1.05}

// regimeBound is the largest β·ΔΦ any generated op may reach (checked by
// TestRegimeBound): beyond it the program has known precision and compute
// defects, named in BENCHMARK.json.
const regimeBound = 24

var denseTemplates = []template{
	{name: "dominant-64", spec: spec.Spec{Game: "dominant", N: 3, M: 4}, backend: "dense"},
	{name: "ising-ring-64", spec: spec.Spec{Game: "ising", Graph: "ring", N: 6, Delta1: 1}, backend: "dense"},
	{name: "graphical-clique-64", spec: spec.Spec{Game: "graphical", Graph: "clique", N: 6, Delta0: 2, Delta1: 1}, backend: "dense"},
	{name: "random-64", spec: spec.Spec{Game: "random", N: 3, M: 4, Scale: 1}, backend: "dense", seeds: []uint64{1, 2, 3}},
	{name: "congestion-81", spec: spec.Spec{Game: "congestion", N: 4, M: 3}, backend: "dense"},
	{name: "asymwell-128", spec: spec.Spec{Game: "asymwell", N: 7, C: 2, Depth: 2, Shallow: 1}, backend: "dense"},
	{name: "ising-clique-128", spec: spec.Spec{Game: "ising", Graph: "clique", N: 7, Delta1: 1}, backend: "dense"},
	{name: "random-128", spec: spec.Spec{Game: "random", N: 7, M: 2, Scale: 1}, backend: "dense", seeds: []uint64{1, 2, 3}},
	{name: "doublewell-128", spec: spec.Spec{Game: "doublewell", N: 7, C: 2, Delta1: 1}, backend: "dense"},
	{name: "doublewell-256", spec: spec.Spec{Game: "doublewell", N: 8, C: 3, Delta1: 1}, backend: "dense"},
	{name: "dominant-256", spec: spec.Spec{Game: "dominant", N: 4, M: 4}, backend: "dense"},
	{name: "ising-ring-256", spec: spec.Spec{Game: "ising", Graph: "ring", N: 8, Delta1: 1}, backend: "dense"},
}

var sparseTemplates = []template{
	{name: "doublewell-8k", spec: spec.Spec{Game: "doublewell", N: 13, C: 4, Delta1: 1}, backend: "sparse"},
	{name: "ising-ring-8k", spec: spec.Spec{Game: "ising", Graph: "ring", N: 13, Delta1: 1}, backend: "sparse"},
	{name: "doublewell-32k", spec: spec.Spec{Game: "doublewell", N: 15, C: 5, Delta1: 1}, backend: "sparse"},
	// Lanczos needs 100–110 iterations here at every level, against 40–80
	// for the other templates, so a re-orthogonalization kernel whose cost
	// grows with k² is measured near k = 100 too. One level keeps a cycle's
	// op count odd, so the median falls inside a template, not between two.
	{name: "ising-path-16k", spec: spec.Spec{Game: "ising", Graph: "path", N: 14, Delta1: 1}, backend: "sparse", levels: []float64{16}},
	{name: "doublewell-8k-matfree", spec: spec.Spec{Game: "doublewell", N: 13, C: 4, Delta1: 1}, backend: "matfree"},
	{name: "torus-64k", spec: spec.Spec{Game: "graphical", Graph: "torus", Rows: 4, Cols: 4, Delta0: 2, Delta1: 1}, backend: "sparse"},
}

// serveTemplates are the small games the service mix analyzes; backend ""
// lets the service route them (dense at this size).
var serveTemplates = []template{
	{name: "doublewell-64", spec: spec.Spec{Game: "doublewell", N: 6, C: 2, Delta1: 1}},
	{name: "ising-ring-64", spec: spec.Spec{Game: "ising", Graph: "ring", N: 6, Delta1: 1}},
	{name: "dominant-64", spec: spec.Spec{Game: "dominant", N: 3, M: 4}},
	{name: "asymwell-128", spec: spec.Spec{Game: "asymwell", N: 7, C: 2, Depth: 2, Shallow: 1}},
	{name: "ising-clique-128", spec: spec.Spec{Game: "ising", Graph: "clique", N: 7, Delta1: 1}},
	{name: "random-64", spec: spec.Spec{Game: "random", N: 3, M: 4, Scale: 1}, seeds: []uint64{1, 2, 3}},
}

var simTemplates = []template{
	{name: "ising-ring-256", spec: spec.Spec{Game: "ising", Graph: "ring", N: 8, Delta1: 1}},
	{name: "doublewell-64", spec: spec.Spec{Game: "doublewell", N: 6, C: 2, Delta1: 1}},
	{name: "graphical-clique-64", spec: spec.Spec{Game: "graphical", Graph: "clique", N: 6, Delta0: 2, Delta1: 1}},
}

var (
	denseLevels  = []float64{3, 10, 18}
	sparseLevels = []float64{4, 16}
	serveLevels  = []float64{3, 10, 18}
	simLevels    = []float64{3, 10}
	simSeeds     = []uint64{7, 8}
)

// Simulation size of every /v1/simulate op.
const (
	simSteps    = 1000
	simReplicas = 200
)

// universe lists every analysis case a workload can generate, in a fixed
// order: the reference table covers exactly these.
func universe(tpls []template, levels []float64) []analysisCase {
	var out []analysisCase
	for _, t := range tpls {
		seeds := t.seeds
		if len(seeds) == 0 {
			seeds = []uint64{t.spec.Seed}
		}
		for _, s := range seeds {
			sp := t.spec
			sp.Seed = s
			for _, lv := range t.levelsOr(levels) {
				for _, j := range jitters {
					out = append(out, analysisCase{template: t.name, spec: sp, backend: t.backend, level: lv, jitter: j})
				}
			}
		}
	}
	return out
}

// analysisCycle is cycle c of an analysis workload: every template at
// each of its levels exactly once, in seeded order. Within a template the levels
// take distinct jitters and, for random families, distinct game seeds, in
// seeded pairings. Whole, stratified cycles keep the op mix the same for
// every seed, so only the drawn inputs differ.
func analysisCycle(tpls []template, levels []float64, seed uint64, c int) []analysisCase {
	g := newGen(seed, uint64(c)+1)
	var out []analysisCase
	for _, t := range tpls {
		lvs := t.levelsOr(levels)
		js := pickDistinct(g, len(jitters), len(lvs))
		var ss []int
		if len(t.seeds) > 0 {
			ss = pickDistinct(g, len(t.seeds), min(len(lvs), len(t.seeds)))
		}
		for i, lv := range lvs {
			sp := t.spec
			if len(ss) > 0 {
				sp.Seed = t.seeds[ss[i%len(ss)]]
			}
			out = append(out, analysisCase{template: t.name, spec: sp, backend: t.backend, level: lv, jitter: jitters[js[i%len(js)]]})
		}
	}
	g.shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// pickDistinct draws k distinct indices below n, in random order.
func pickDistinct(g *gen, n, k int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + g.intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// specKey is the canonical spelling of a spec, used to key games and
// reference entries.
func specKey(sp spec.Spec) string {
	b, err := json.Marshal(sp)
	if err != nil {
		panic(err) // a Spec is plain data; marshalling cannot fail
	}
	return string(b)
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// analysisKey names one analysis in the reference table. route separates
// in-process analyses ("core") from those served over HTTP ("serve").
func analysisKey(route string, sp spec.Spec, backend string, beta float64) string {
	return route + "|" + specKey(sp) + "|" + backend + "|" + fmtFloat(beta)
}

// simKey names one simulation in the reference table.
func simKey(sp spec.Spec, beta float64, seed uint64) string {
	return fmt.Sprintf("sim|%s|%s|%d|%d|%d", specKey(sp), fmtFloat(beta), simSteps, simReplicas, seed)
}

// games builds and caches each spec's game and its ΔΦ.
type games struct {
	game     map[string]game.Game
	deltaPhi map[string]float64
}

func newGames() *games {
	return &games{game: map[string]game.Game{}, deltaPhi: map[string]float64{}}
}

// add builds sp's game and computes ΔΦ with mixing.AnalyzePotential.
func (gs *games) add(sp spec.Spec) error {
	k := specKey(sp)
	if _, ok := gs.game[k]; ok {
		return nil
	}
	g, err := spec.SafeBuild(sp.Build)
	if err != nil {
		return fmt.Errorf("build %s: %w", k, err)
	}
	p, ok := game.AsPotential(g)
	if !ok {
		return fmt.Errorf("%s is not a potential game", k)
	}
	st, err := mixing.AnalyzePotential(p)
	if err != nil {
		return fmt.Errorf("potential stats of %s: %w", k, err)
	}
	if st.DeltaPhi <= 0 {
		return fmt.Errorf("%s has ΔΦ = %g", k, st.DeltaPhi)
	}
	gs.game[k] = g
	gs.deltaPhi[k] = st.DeltaPhi
	return nil
}

// addAll builds every spec the cases use.
func (gs *games) addAll(cases []analysisCase) error {
	for _, c := range cases {
		if err := gs.add(c.spec); err != nil {
			return err
		}
	}
	return nil
}

// beta resolves a case's β from its game's ΔΦ; the game must be added.
func (gs *games) beta(c analysisCase) float64 {
	return c.level * c.jitter / gs.deltaPhi[specKey(c.spec)]
}
