package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"logitdyn/internal/core"
	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
	"logitdyn/internal/mixing"
	"logitdyn/internal/rng"
	"logitdyn/internal/scratch"
	"logitdyn/internal/serialize"
	"logitdyn/internal/spectral"
)

// analysisWorkload is a closed loop with one caller running core.AnalyzeGame
// over whole cycles of its templates × levels. cycleSeconds is the nominal
// time of one untraced cycle on a 2-core x86_64 host: a run measures
// round(seconds/cycleSeconds) cycles, so the op multiset, and with it the
// rank the median and the tail fall on, depends only on --seconds.
type analysisWorkload struct {
	templates    []template
	levels       []float64
	cycleSeconds float64
}

var (
	exactDense    = analysisWorkload{templates: denseTemplates, levels: denseLevels, cycleSeconds: 2.2}
	lanczosSparse = analysisWorkload{templates: sparseTemplates, levels: sparseLevels, cycleSeconds: 3.1}
)

// cycles is how many whole cycles a run of seconds measures; a traced run
// does every op twice.
func (w analysisWorkload) cycles(seconds float64, traced bool) int {
	if traced {
		seconds /= 2
	}
	return max(2, int(math.Round(seconds/w.cycleSeconds)))
}

// analysisEnv is one set-up of an analysis workload: its games with ΔΦ, the
// reference table and the scratch pool the analyses draw arenas from, as
// the CLIs and the service do.
type analysisEnv struct {
	w    analysisWorkload
	gs   *games
	ref  *reference
	pool *scratch.Pool
}

// setupAnalysis builds every game the workload can draw, computes each ΔΦ
// and runs one untimed warm-up op per template.
func setupAnalysis(w analysisWorkload, ref *reference) (*analysisEnv, error) {
	e := &analysisEnv{w: w, gs: newGames(), ref: ref, pool: scratch.NewPool()}
	if err := e.gs.addAll(universe(w.templates, w.levels)); err != nil {
		return nil, err
	}
	for _, t := range w.templates {
		sp := t.spec
		if len(t.seeds) > 0 {
			sp.Seed = t.seeds[0]
		}
		c := analysisCase{template: t.name, spec: sp, backend: t.backend, level: t.levelsOr(w.levels)[0], jitter: 1}
		if _, err := e.runChecked(c, linalg.ParallelConfig{}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

func (e *analysisEnv) key(c analysisCase) string {
	return analysisKey("core", c.spec, c.backend, e.gs.beta(c))
}

// analyze is one op: core.AnalyzeGame with an arena from the pool.
func (e *analysisEnv) analyze(c analysisCase, par linalg.ParallelConfig) (*core.Report, error) {
	ar := e.pool.Acquire()
	defer e.pool.Release(ar)
	return core.AnalyzeGame(e.gs.game[specKey(c.spec)], e.gs.beta(c), core.Options{Backend: c.backend, Parallel: par, Scratch: ar})
}

func (e *analysisEnv) runChecked(c analysisCase, par linalg.ParallelConfig) (*core.Report, error) {
	rep, err := e.analyze(c, par)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.key(c), err)
	}
	return rep, e.ref.check(e.key(c), fromCore(rep))
}

// runAnalysis measures whole cycles, untraced.
func runAnalysis(e *analysisEnv, seed uint64, cycles int, tl *tally) {
	start := time.Now()
	for c := 0; c < cycles; c++ {
		cs, n := time.Now(), tl.attempted
		for _, op := range analysisCycle(e.w.templates, e.w.levels, seed, c) {
			t0 := time.Now()
			rep, err := e.analyze(op, linalg.ParallelConfig{})
			tl.op(time.Since(t0))
			if err == nil {
				err = e.ref.check(e.key(op), fromCore(rep))
			}
			tl.result(err)
		}
		tl.rates = append(tl.rates, float64(tl.attempted-n)/time.Since(cs).Seconds())
	}
	tl.wall = time.Since(start)
}

// layerLedger accumulates the traced run of an analysis workload.
type layerLedger struct {
	ops                     int
	untraced, tracedRoot    time.Duration
	self                    map[string]time.Duration
	denseOps, sparseOps     int
	distanceEvals           int
	lanczosIters            int
	matvec                  time.Duration
	reorthBytes             float64
	scratchHits, scratchAll uint64
}

// traceAnalysis runs every op twice, once untraced and once as the
// sequence of public layer calls core.AnalyzeCtx makes (alternating which
// goes first), asserts both reports are byte-identical and records each
// call as a span.
func traceAnalysis(e *analysisEnv, seed uint64, cycles int, tl *tally) *layerLedger {
	led := &layerLedger{self: map[string]time.Duration{}}
	m0 := e.pool.Metrics()
	i := 0
	for c := 0; c < cycles; c++ {
		for _, op := range analysisCycle(e.w.templates, e.w.levels, seed, c) {
			var plain *core.Report
			var perr error
			var plainDur time.Duration
			untraced := func() {
				t0 := time.Now()
				plain, perr = e.analyze(op, linalg.ParallelConfig{})
				plainDur = time.Since(t0)
			}
			var tr *tracedResult
			var terr error
			traced := func() { tr, terr = e.traced(op) }
			if i%2 == 0 {
				untraced()
				traced()
			} else {
				traced()
				untraced()
			}
			i++
			tl.op(plainDur)
			err := errors.Join(perr, terr)
			if err == nil {
				err = e.ref.check(e.key(op), fromCore(plain))
			}
			if err == nil {
				err = sameReport(plain, tr.rep)
			}
			tl.result(err)
			if err != nil {
				continue
			}
			led.add(plainDur, tr)
		}
	}
	m1 := e.pool.Metrics()
	led.scratchHits = m1.Hits - m0.Hits
	led.scratchAll = m1.Hits + m1.Misses - m0.Hits - m0.Misses
	return led
}

func (led *layerLedger) add(plain time.Duration, tr *tracedResult) {
	led.ops++
	led.untraced += plain
	led.tracedRoot += tr.spans[0].iv.end - tr.spans[0].iv.start
	for name, d := range selfTimes(tr.spans) {
		led.self[name] += d
	}
	if tr.rep.MixingTimeExact {
		led.denseOps++
		led.distanceEvals += distanceEvals(tr.rep.MixingTime)
		return
	}
	led.sparseOps++
	k := tr.rep.LanczosIterations
	led.lanczosIters += k
	led.matvec += time.Duration(k) * tr.apply
	led.reorthBytes += reorthBytes(k, tr.rep.NumProfiles)
}

// sameReport asserts the traced call sequence reproduced the untraced
// report exactly, via the wire encoding (which spells NaN and ±Inf).
func sameReport(a, b *core.Report) error {
	ja, err := json.Marshal(serialize.FromReport(a, "", mixing.DefaultEps))
	if err != nil {
		return err
	}
	jb, err := json.Marshal(serialize.FromReport(b, "", mixing.DefaultEps))
	if err != nil {
		return err
	}
	if !bytes.Equal(ja, jb) {
		return errors.New("traced layer sequence disagrees with core.AnalyzeGame")
	}
	return nil
}

// distanceEvals counts the d(t) evaluations Decomposition.MixingTime makes
// to find t_mix = tm: its exponential bracket then its bisection, replayed
// with the predicate t >= tm (d(t) is non-increasing). Computed, not
// measured.
func distanceEvals(tm int64) int {
	n := 1 // d(0)
	if tm == 0 {
		return n
	}
	lo, hi := int64(0), int64(1)
	n++
	for hi < tm {
		lo = hi
		hi *= 2
		n++
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		n++
		if mid >= tm {
			hi = mid
		} else {
			lo = mid
		}
	}
	return n
}

// reorthBytes is the memory traffic full re-orthogonalization computes to
// for k Lanczos steps on n states: step j projects against ψ1 and j+1 basis
// vectors, each projection a dot (2 reads) and an axpy (2 reads, 1 write)
// over n float64s. Computed from k and n, not measured.
func reorthBytes(k, n int) float64 {
	projections := 0
	for j := 0; j < k; j++ {
		projections += j + 2
	}
	return float64(projections) * 5 * 8 * float64(n)
}

// lanczosSeed, lanczosMaxIter and lanczosTol mirror the Lanczos call inside
// mixing.RelaxationSandwich; the byte-equality check in traceAnalysis fails
// if they drift.
const (
	lanczosSeed    = 0x1a9c205
	lanczosMaxIter = 256
	lanczosTol     = 1e-12
)

// tracedResult is one traced op: its report, its spans (root first) and,
// on the Lanczos route, the median time of one SymOperator.Apply.
type tracedResult struct {
	rep   *core.Report
	spans []span
	apply time.Duration
}

// tracer records spans as children of one root span.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: []span{{name: "op", parent: -1}}}
}

func (t *tracer) call(name string, f func()) {
	s := time.Since(t.origin)
	f()
	t.spans = append(t.spans, span{name: name, iv: interval{s, time.Since(t.origin)}, parent: 0})
}

func (t *tracer) finish() { t.spans[0].iv.end = time.Since(t.origin) }

// traced runs op as the public layer calls core.AnalyzeGame makes, one span
// per call.
func (e *analysisEnv) traced(op analysisCase) (*tracedResult, error) {
	ar := e.pool.Acquire()
	defer e.pool.Release(ar)
	g := e.gs.game[specKey(op.spec)]
	beta := e.gs.beta(op)
	opts := core.Options{Backend: op.backend, Scratch: ar}.Normalized()
	par, eps := opts.Parallel, opts.Eps
	t := newTracer()
	res := &tracedResult{}

	var d *logit.Dynamics
	var err error
	t.call("logit.new", func() { d, err = logit.New(g, beta) })
	if err != nil {
		return nil, err
	}
	size := d.Space().Size()
	backend := logit.Backend(op.backend)
	rep := &core.Report{Beta: beta, NumProfiles: size, Backend: string(backend)}
	large := size > opts.MaxExactStates
	var pi []float64
	var sym *spectral.SymOperator

	if backend == logit.BackendDense {
		var p *linalg.Dense
		var dec *spectral.Decomposition
		t.call("logit.stationary", func() { pi, err = d.StationaryPar(par) })
		if err == nil {
			t.call("logit.dense_build", func() { p = d.TransitionDensePar(par) })
			t.call("spectral.decompose", func() { dec, err = spectral.Decompose(p, pi) })
		}
		if err == nil {
			dec.WithParallel(par)
			t.call("spectral.mixsearch", func() { rep.MixingTime, err = dec.MixingTime(eps, opts.MaxT) })
		}
		if err != nil {
			return nil, err
		}
		t.call("spectral.sandwich", func() {
			rep.SpectralLower, rep.SpectralUpper = dec.MixingTimeBoundsFromRelaxation(eps)
			rep.MixingTimeExact, rep.SpectralConverged = true, true
			rep.RelaxationTime, rep.LambdaStar, rep.MinEigenvalue = dec.RelaxationTime(), dec.LambdaStar(), dec.MinEigenvalue()
		})
		t.call("logit.stationary", func() { pi, err = d.StationaryPar(par) })
	} else {
		var p linalg.Operator
		var lr *spectral.LanczosResult
		t.call("logit.stationary", func() { pi, err = d.GibbsScratch(par, ar) })
		if err == nil {
			build := "logit.csr_build"
			if backend == logit.BackendMatFree {
				build = "logit.matfree_build"
			}
			t.call(build, func() { p, err = d.OperatorScratch(backend, par, ar) })
		}
		if err == nil {
			t.call("spectral.symop", func() { sym, err = spectral.NewSymOperatorScratch(p, pi, ar) })
		}
		if err == nil {
			sym.WithParallel(par)
			t.call("spectral.lanczos", func() { lr, err = spectral.Lanczos(sym, lanczosMaxIter, lanczosTol, rng.New(lanczosSeed)) })
		}
		if err != nil {
			return nil, err
		}
		t.call("spectral.sandwich", func() {
			rep.SpectralLower, rep.SpectralUpper = spectral.MixingTimeSandwich(lr.RelaxationTime(), pi, eps)
			rep.RelaxationTime, rep.LambdaStar, rep.MinEigenvalue = lr.RelaxationTime(), lr.LambdaStar(), lr.LambdaMin
			rep.LanczosIterations, rep.SpectralConverged = lr.Iterations, lr.Converged
		})
	}
	if err != nil {
		return nil, err
	}
	if !large {
		rep.Stationary = pi
	}
	pot, ok := game.AsPotential(g)
	if !ok {
		return nil, errors.New("traced route covers potential games only")
	}
	rep.IsPotentialGame = true
	t.call("mixing.stats", func() {
		rep.Stats, err = mixing.AnalyzePotentialScratch(pot, par, ar, !large)
		if err == nil {
			rep.Bounds, err = mixing.ReportFromStats(pot, beta, eps, rep.Stats)
		}
	})
	if err != nil {
		return nil, err
	}
	if large {
		rep.Stats.Phi = nil
		if rep.Bounds != nil && rep.Bounds.Stats != nil {
			rep.Bounds.Stats.Phi = nil
		}
	}
	t.call("game.equilibria", func() {
		rep.PureNash = game.PureNashEquilibriaPar(g, 1e-12, par)
		if prof, ok := game.DominantProfilePar(g, 1e-12, par); ok {
			rep.DominantProfile = prof
		}
	})
	t.call("mixing.welfare", func() { rep.Welfare, err = mixing.StationaryWelfarePar(d, pi, par) })
	if err != nil {
		return nil, err
	}
	t.finish()
	res.rep, res.spans = rep, t.spans
	if sym != nil {
		res.apply = timeApply(sym, ar)
	}
	return res, nil
}

// timeApply is the median of three SymOperator.Apply calls, timed outside
// the op's root span.
func timeApply(sym *spectral.SymOperator, ar *scratch.Arena) time.Duration {
	v, dst := ar.F64(sym.N()), ar.F64(sym.N())
	for i := range v {
		v[i] = 1
	}
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		sym.Apply(dst, v)
		ts = append(ts, float64(time.Since(t0)))
	}
	return time.Duration(medianOf(ts))
}

// parallelSpeedup times the same Lanczos op at one worker and at
// GOMAXPROCS workers (three alternating pairs, medians) and checks both
// reports equal the reference: the worker count must never change output.
func parallelSpeedup(e *analysisEnv, c analysisCase) (float64, error) {
	var one, all []float64
	for i := 0; i < 3; i++ {
		for _, par := range []linalg.ParallelConfig{{Workers: 1}, {}} {
			t0 := time.Now()
			if _, err := e.runChecked(c, par); err != nil {
				return 0, err
			}
			if par.Workers == 1 {
				one = append(one, float64(time.Since(t0)))
			} else {
				all = append(all, float64(time.Since(t0)))
			}
		}
	}
	return medianOf(one) / medianOf(all), nil
}
