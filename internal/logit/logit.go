// Package logit implements the paper's central object: the logit dynamics
// with inverse noise β for a finite strategic game (Blume 1993; the paper's
// Section 2).
//
// At each step a player i is chosen uniformly at random and updates her
// strategy to y with probability
//
//	σ_i(y | x) = exp(β·u_i(y, x_-i)) / Σ_z exp(β·u_i(z, x_-i))     (Eq. 2)
//
// which defines the ergodic Markov chain Mβ(G) of Eq. (3). For potential
// games the chain is reversible with the Gibbs stationary measure
// π(x) ∝ exp(−β·Φ(x)) (Eq. 4, in the sign convention of the paper's proofs).
//
// All exponentials are computed in shifted form (subtracting the row maximum
// utility, or the minimum potential) so that arbitrarily large β never
// overflows.
package logit

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/markov"
	"logitdyn/internal/rng"
	"logitdyn/internal/scratch"
)

// Dynamics is the logit dynamics Mβ(G) for a fixed game and inverse noise.
type Dynamics struct {
	g     game.Game
	beta  float64
	space *game.Space
}

// New validates β >= 0 and returns the dynamics.
func New(g game.Game, beta float64) (*Dynamics, error) {
	if g == nil {
		return nil, errors.New("logit: nil game")
	}
	if beta < 0 || math.IsNaN(beta) || math.IsInf(beta, 0) {
		return nil, fmt.Errorf("logit: inverse noise must be finite and >= 0, got %g", beta)
	}
	return &Dynamics{g: g, beta: beta, space: game.SpaceOf(g)}, nil
}

// Game returns the underlying game.
func (d *Dynamics) Game() game.Game { return d.g }

// Beta returns the inverse noise β.
func (d *Dynamics) Beta() float64 { return d.beta }

// Space returns the profile space of the game.
func (d *Dynamics) Space() *game.Space { return d.space }

// UpdateProbs returns σ_i(· | x), the logit update distribution of player i
// at profile x (Eq. 2), reusing dst when it has the right length. x is not
// modified.
func (d *Dynamics) UpdateProbs(i int, x []int, dst []float64) []float64 {
	return d.updateProbsAt(i, append([]int(nil), x...), dst)
}

// updateProbsAt is the allocation-free core of UpdateProbs: it mutates
// y[i] while sweeping player i's strategies and restores it before
// returning, so hot paths (row generation) can pass their own scratch
// profile instead of copying per call.
func (d *Dynamics) updateProbsAt(i int, y []int, dst []float64) []float64 {
	m := d.g.Strategies(i)
	if len(dst) != m {
		dst = make([]float64, m)
	}
	orig := y[i]
	maxU := math.Inf(-1)
	for v := 0; v < m; v++ {
		y[i] = v
		u := d.g.Utility(i, y)
		dst[v] = u
		if u > maxU {
			maxU = u
		}
	}
	y[i] = orig
	total := 0.0
	for v := 0; v < m; v++ {
		dst[v] = math.Exp(d.beta * (dst[v] - maxU))
		total += dst[v]
	}
	for v := 0; v < m; v++ {
		dst[v] /= total
	}
	return dst
}

// RowGen generates sparse transition rows of the Eq. (3) chain one state at
// a time, owning the per-row scratch. It is the single source of transition
// rows for every backend: TransitionSparsePar and TransitionCSRScratch
// tabulate rows through it and the matrix-free operator calls it on the
// fly. A RowGen is not safe for concurrent use; give each goroutine its
// own.
type RowGen struct {
	d *Dynamics
	x []int
	// probs holds one reusable σ_i buffer per player, so heterogeneous
	// strategy counts never force a reallocation inside the row loop.
	probs [][]float64
}

// NewRowGen returns a row generator for the dynamics.
func (d *Dynamics) NewRowGen() *RowGen {
	n := d.space.Players()
	probs := make([][]float64, n)
	for i := range probs {
		probs[i] = make([]float64, d.g.Strategies(i))
	}
	return &RowGen{d: d, x: make([]int, n), probs: probs}
}

// AppendRow appends the sparse transition row of the profile with the given
// index to row and returns it: one entry per improving (player, strategy)
// deviation plus the diagonal self-loop accumulating Σ_i σ_i(x_i | x)/n.
// It performs no allocations beyond growing row.
func (g *RowGen) AppendRow(idx int, row []markov.Entry) []markov.Entry {
	d := g.d
	n := d.space.Players()
	d.space.Decode(idx, g.x)
	self := 0.0
	for i := 0; i < n; i++ {
		probs := d.updateProbsAt(i, g.x, g.probs[i])
		for v, p := range probs {
			if v == g.x[i] {
				self += p
				continue
			}
			if p == 0 {
				continue
			}
			row = append(row, markov.Entry{To: d.space.WithDigit(idx, i, v), P: p / float64(n)})
		}
	}
	return append(row, markov.Entry{To: idx, P: self / float64(n)})
}

// TransitionSparsePar builds the Eq. (3) transition matrix in sparse row
// form: each state has one entry per (player, strategy) pair, with the
// diagonal accumulating the self-loop mass Σ_i σ_i(x_i | x)/n. This is the
// primary representation; the dense form is derived from it. The worker
// budget never changes the rows, only how many goroutines fill them.
func (d *Dynamics) TransitionSparsePar(par linalg.ParallelConfig) *markov.Sparse {
	size := d.space.Size()
	s := markov.NewSparse(size)
	par.For(size, func(lo, hi int) {
		gen := d.NewRowGen()
		for idx := lo; idx < hi; idx++ {
			s.Rows[idx] = gen.AppendRow(idx, make([]markov.Entry, 0, 1+d.space.Players()))
		}
	})
	return s
}

// TransitionCSRScratch builds the transition matrix in compressed-sparse-row
// form, the representation the sparse analysis backend iterates, using the
// given worker budget for both construction and the returned matrix's
// mat-vecs. Rows are written directly into width-padded CSR arrays in
// parallel (every row has at most W = 1 + Σᵢ(|Sᵢ|−1) entries), so no
// intermediate row-list — with its one slice header per state — is ever
// materialized; a compaction pass runs only when some update probability
// underflowed to zero. The arrays are checked out from the arena (nil
// allocates fresh); an arena-backed matrix is owned by the analysis that
// owns a and must not outlive it — the operator never escapes into a
// report, which is what makes this safe.
func (d *Dynamics) TransitionCSRScratch(par linalg.ParallelConfig, a *scratch.Arena) *linalg.CSR {
	size := d.space.Size()
	w := 1
	for i := 0; i < d.space.Players(); i++ {
		w += d.space.Strategies(i) - 1
	}
	col := a.Ints(size * w)
	val := a.F64(size * w)
	counts := a.Ints(size)
	par.For(size, func(lo, hi int) {
		gen := d.NewRowGen()
		row := make([]markov.Entry, 0, w)
		for idx := lo; idx < hi; idx++ {
			row = gen.AppendRow(idx, row[:0])
			base := idx * w
			for j, e := range row {
				col[base+j] = e.To
				val[base+j] = e.P
			}
			counts[idx] = len(row)
		}
	})
	rowPtr := a.Ints(size + 1)
	for i, c := range counts {
		rowPtr[i+1] = rowPtr[i] + c
	}
	if nnz := rowPtr[size]; nnz < size*w {
		// Some rows came up short (zero-probability entries were skipped);
		// compact in place — reads always stay at or ahead of writes.
		for i, c := range counts {
			copy(col[rowPtr[i]:rowPtr[i+1]], col[i*w:i*w+c])
			copy(val[rowPtr[i]:rowPtr[i+1]], val[i*w:i*w+c])
		}
		col = col[:nnz]
		val = val[:nnz]
	}
	return linalg.NewCSR(size, size, rowPtr, col, val).WithParallel(par)
}

// TransitionDensePar materializes the Eq. (3) transition matrix densely — a
// view over the sparse-first construction under the given worker budget,
// for the exact eigendecomposition path.
func (d *Dynamics) TransitionDensePar(par linalg.ParallelConfig) *linalg.Dense {
	return d.TransitionSparsePar(par).Dense()
}

// OperatorScratch returns the transition matrix as a linalg.Operator in the
// requested concrete backend, carrying the given worker budget (auto must
// be resolved by the caller first, since the dense threshold is a policy of
// the analysis layer). The budget bounds the build and the operator's
// mat-vecs; it never changes their results. The sparse backend's CSR
// arrays are checked out from the arena (nil = fresh); the dense and
// matrix-free backends carry no shape-sized construction arrays, so they
// are unaffected. An arena-backed operator must not outlive the analysis
// that owns a.
func (d *Dynamics) OperatorScratch(b Backend, par linalg.ParallelConfig, a *scratch.Arena) (linalg.Operator, error) {
	switch b {
	case BackendDense:
		return d.TransitionDensePar(par).WithParallel(par), nil
	case BackendSparse:
		return d.TransitionCSRScratch(par, a), nil
	case BackendMatFree:
		return d.MatFree().WithParallel(par), nil
	}
	return nil, fmt.Errorf("logit: no concrete operator for backend %q", b)
}

// GibbsScratch returns the Gibbs measure π(x) ∝ exp(−β·Φ(x)) (Eq. 4) when
// the game exposes an exact potential, computed with the minimum-potential
// shift so large β cannot overflow. It errors for games without a
// potential. Potential tabulation and exponentiation are element-wise
// parallel over par; the minimum is an exact (order-independent) reduction
// and the normalizing sum accumulates over fixed blocks, so the measure is
// bit-identical for every worker count. The potential table is checked out
// from the arena (nil = fresh); the returned measure is always freshly
// allocated: it escapes into reports and caches, so it must survive the
// arena's Reset.
func (d *Dynamics) GibbsScratch(par linalg.ParallelConfig, a *scratch.Arena) ([]float64, error) {
	p, ok := game.AsPotential(d.g)
	if !ok {
		return nil, errors.New("logit: Gibbs measure requires a potential game")
	}
	size := d.space.Size()
	phi := a.F64(size)
	var mu sync.Mutex
	minPhi := math.Inf(1)
	par.For(size, func(lo, hi int) {
		x := make([]int, d.space.Players())
		local := math.Inf(1)
		for idx := lo; idx < hi; idx++ {
			d.space.Decode(idx, x)
			phi[idx] = p.Phi(x)
			if phi[idx] < local {
				local = phi[idx]
			}
		}
		mu.Lock()
		if local < minPhi {
			minPhi = local
		}
		mu.Unlock()
	})
	// One fused sweep: BlockSum visits every block exactly once, so the
	// exponentiation fills π while the block partial accumulates.
	pi := make([]float64, size)
	total := par.BlockSum(size, func(lo, hi int) float64 {
		s := 0.0
		for idx := lo; idx < hi; idx++ {
			v := math.Exp(-d.beta * (phi[idx] - minPhi))
			pi[idx] = v
			s += v
		}
		return s
	})
	linalg.Scale(1/total, pi)
	return pi, nil
}

// StationaryPar returns the stationary distribution: the Gibbs measure for
// potential games, or the direct null-space solve of the transition matrix
// otherwise (which requires a materializable profile space). The worker
// budget covers the Gibbs sweep and the dense materialization of the
// fallback solve; as everywhere in the parallel layer, it never changes the
// result.
func (d *Dynamics) StationaryPar(par linalg.ParallelConfig) ([]float64, error) {
	if pi, err := d.GibbsScratch(par, nil); err == nil {
		return pi, nil
	}
	return markov.StationaryDirect(d.TransitionDensePar(par))
}

// Step performs one logit update in place: picks a player uniformly and
// resamples her strategy from σ_i(· | x). It returns the updated player.
// Hot loops (trajectories, replica engines) use a Stepper instead, which
// samples identically without the per-step allocations.
func (d *Dynamics) Step(x []int, r *rng.RNG) int {
	i := r.Intn(d.space.Players())
	probs := d.UpdateProbs(i, x, nil)
	x[i] = r.Categorical(probs)
	return i
}

// Stepper owns the per-player σ_i scratch of a simulation loop, so a
// trajectory performs no allocations per step. It consumes the RNG stream
// exactly as Step does — one player draw, one categorical draw — so a
// Stepper-driven trajectory visits the same states as a Step-driven one.
// A Stepper is not safe for concurrent use; give each replica worker its
// own.
type Stepper struct {
	d     *Dynamics
	probs [][]float64
}

// NewStepper returns a stepper for the dynamics.
func (d *Dynamics) NewStepper() *Stepper {
	probs := make([][]float64, d.space.Players())
	for i := range probs {
		probs[i] = make([]float64, d.g.Strategies(i))
	}
	return &Stepper{d: d, probs: probs}
}

// Step performs one logit update in place and returns the updated player.
func (s *Stepper) Step(x []int, r *rng.RNG) int {
	i := r.Intn(s.d.space.Players())
	probs := s.d.updateProbsAt(i, x, s.probs[i])
	x[i] = r.Categorical(probs)
	return i
}

// Advance runs k steps from profile x, whose flat index is idx, updating x
// in place and adding every visited index — not the starting one — to
// counts. It returns the final index. Chunked callers (the simulate
// stream's snapshot cadence) call it once per chunk and continue from the
// returned index: the RNG draws and the visits are exactly those of one
// uninterrupted run.
func (s *Stepper) Advance(counts []int64, x []int, idx, k int, r *rng.RNG) int {
	sp := s.d.space
	for ; k > 0; k-- {
		i := s.Step(x, r)
		idx = sp.WithDigit(idx, i, x[i])
		counts[idx]++
	}
	return idx
}

// StepIndexed performs one logit update on a profile index.
func (d *Dynamics) StepIndexed(idx int, r *rng.RNG) int {
	x := d.space.Decode(idx, nil)
	d.Step(x, r)
	return d.space.Encode(x)
}

// Trajectory runs t steps from the given starting profile and returns the
// visit counts per profile index. The starting profile is counted once.
func (d *Dynamics) Trajectory(start []int, t int, r *rng.RNG) []int64 {
	counts := make([]int64, d.space.Size())
	d.TrajectoryInto(counts, start, t, r)
	return counts
}

// TrajectoryInto runs t steps from the given starting profile and adds the
// visit counts into counts (len |S|), which is not zeroed first — replica
// engines accumulate many trajectories into one worker-owned vector. The
// starting profile is counted once.
func (d *Dynamics) TrajectoryInto(counts []int64, start []int, t int, r *rng.RNG) {
	if len(counts) != d.space.Size() {
		panic("logit: TrajectoryInto counts size mismatch")
	}
	x := append([]int(nil), start...)
	idx := d.space.Encode(x)
	counts[idx]++
	d.NewStepper().Advance(counts, x, idx, t, r)
}
