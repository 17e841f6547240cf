package spectral

import (
	"errors"
	"fmt"
	"math"

	"logitdyn/internal/linalg"
	"logitdyn/internal/rng"
	"logitdyn/internal/scratch"
)

// Iterative spectral analysis. Dense decomposition is O(|S|³) and caps exact
// work near |S| ≈ 4096; the Lanczos iteration below needs only mat-vecs with
// the symmetrized operator A = D^{1/2} P D^{−1/2}, so the relaxation time of
// much larger logit chains (|S| in the hundreds of thousands) stays
// measurable. Because SymOperator wraps any linalg.Operator, the same solver
// runs on the CSR sparse backend and on the matrix-free operator that
// regenerates logit rows from the game. Theorem 2.3 then converts t_rel into
// a two-sided mixing-time envelope, which is how the repository scales the
// ring experiments beyond the dense limit.

// SymOperator applies the symmetrized chain operator
// A = D^{1/2} P D^{−1/2} (D = diag π) for any transition-operator backend:
// (A v)[x] = sqrt(π_x) · Σ_y P(x,y) · v[y]/sqrt(π_y).
type SymOperator struct {
	p       linalg.Operator
	sqrtPi  []float64
	scratch []float64
	// par is the worker budget for the element-wise scalings in Apply and
	// the re-orthogonalization inside Lanczos. It never affects results:
	// scalings are element-wise and the dot products reduce over fixed
	// blocks (see linalg/parallel.go).
	par linalg.ParallelConfig
	// arena supplies the Lanczos workspace (basis block, iteration vectors)
	// when set; nil means every vector is freshly allocated. Sweeps over
	// same-shape points hand the same arena back in, so the Krylov basis is
	// recycled instead of reallocated. Checkouts come back zeroed, so reuse
	// never changes computed bits.
	arena *scratch.Arena
}

// NewSymOperatorScratch validates inputs and precomputes sqrt(π). The
// operator p must be the row-stochastic transition matrix of a chain
// reversible with respect to π (potential games are, by the paper's Eq. 4).
// sqrt(π) and the apply scratch are checked out from the arena (nil =
// fresh), and the arena is installed as the Lanczos workspace source. The
// operator must not outlive the analysis that owns a.
func NewSymOperatorScratch(p linalg.Operator, pi []float64, a *scratch.Arena) (*SymOperator, error) {
	rows, cols := p.Dims()
	if rows != cols || rows != len(pi) {
		return nil, errors.New("spectral: operator size mismatch")
	}
	sqrtPi := a.F64(len(pi))
	for i, v := range pi {
		if v <= 0 {
			return nil, fmt.Errorf("spectral: π(%d) = %g must be positive", i, v)
		}
		sqrtPi[i] = math.Sqrt(v)
	}
	return &SymOperator{p: p, sqrtPi: sqrtPi, scratch: a.F64(rows), arena: a}, nil
}

// WithParallel sets the operator's worker budget (for Apply's element-wise
// scalings and the Lanczos re-orthogonalization) and returns it. The
// backend operator p carries its own budget for the mat-vec itself.
func (op *SymOperator) WithParallel(par linalg.ParallelConfig) *SymOperator {
	op.par = par
	return op
}

// N returns the state count.
func (op *SymOperator) N() int { return len(op.sqrtPi) }

// Apply computes dst = A·v. dst and v must not alias.
func (op *SymOperator) Apply(dst, v []float64) {
	u := op.scratch
	op.par.For(len(u), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u[i] = v[i] / op.sqrtPi[i]
		}
	})
	op.p.MatVec(dst, u)
	op.par.For(len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] *= op.sqrtPi[i]
		}
	})
}

// TopVector returns ψ1 = sqrt(π), the known unit-λ eigenvector of A.
func (op *SymOperator) TopVector() []float64 {
	return linalg.Clone(op.sqrtPi)
}

// LanczosResult reports the extremal eigenvalues of A restricted to the
// orthogonal complement of ψ1.
type LanczosResult struct {
	// Lambda2 is the largest eigenvalue below the trivial λ1 = 1.
	Lambda2 float64
	// LambdaMin is the smallest eigenvalue of the restriction.
	LambdaMin float64
	// Iterations is the Krylov dimension actually used.
	Iterations int
	// Converged reports whether the iteration ended because the estimates
	// stabilized (residual breakdown, Ritz stagnation, or a complete
	// Krylov space) rather than because maxIter ran out. When false the
	// extremal eigenvalues — and anything derived from them — are lower
	// bounds, not measurements.
	Converged bool
}

// LambdaStar returns max(|λ2|, |λmin|).
func (r *LanczosResult) LambdaStar() float64 {
	return math.Max(math.Abs(r.Lambda2), math.Abs(r.LambdaMin))
}

// RelaxationTime returns 1/(1 − λ*).
func (r *LanczosResult) RelaxationTime() float64 {
	gap := 1 - r.LambdaStar()
	if gap <= 0 {
		return math.Inf(1)
	}
	return 1 / gap
}

// ritzCheckEvery is how many Lanczos steps elapse between Ritz-value
// convergence checks; each check solves the small tridiagonal eigenproblem.
const ritzCheckEvery = 10

// ritzExtremes returns the smallest and largest eigenvalue of the
// tridiagonal matrix with diagonal alphas and off-diagonal betas.
func ritzExtremes(alphas, betas []float64) (lo, hi float64, err error) {
	k := len(alphas)
	tri := linalg.NewDense(k, k)
	for i := 0; i < k; i++ {
		tri.Set(i, i, alphas[i])
		if i+1 < k {
			tri.Set(i, i+1, betas[i])
			tri.Set(i+1, i, betas[i])
		}
	}
	es, err := linalg.SymEigen(tri)
	if err != nil {
		return 0, 0, err
	}
	return es.Values[0], es.Values[k-1], nil
}

// Lanczos runs the Lanczos iteration with full reorthogonalization (against
// ψ1 and every previous Krylov vector) for up to maxIter steps. It stops
// early when the residual β_k falls below tol, or when the extremal Ritz
// values — checked every few steps — have stabilized within tol, so large
// chains pay only as many mat-vecs as their slow modes require. The Ritz
// values of the resulting tridiagonal matrix converge to A's extremal
// eigenvalues on ψ1⊥ — exactly λ2 and λ_min of the chain.
//
// The re-orthogonalization sweep — one dot and one axpy per retained basis
// vector per step, the dominant cost after the mat-vec on large chains —
// runs on the operator's worker budget. Dots reduce over fixed blocks, so
// every worker count produces the same iterates bit for bit.
func Lanczos(op *SymOperator, maxIter int, tol float64, r *rng.RNG) (*LanczosResult, error) {
	n := op.N()
	par := op.par
	if maxIter < 2 {
		return nil, errors.New("spectral: Lanczos needs maxIter >= 2")
	}
	if maxIter > n-1 {
		maxIter = n - 1
	}
	if maxIter < 1 {
		// One-state chain: the restriction is empty; gap is maximal.
		return &LanczosResult{Lambda2: 0, LambdaMin: 0, Iterations: 0, Converged: true}, nil
	}
	// Every n-length vector of the iteration — ψ1, the start vector, the
	// work vector and each retained basis vector — checks out of the
	// operator's arena (fresh allocations when none is installed), so a
	// sweep revisiting this shape reuses the whole Krylov block.
	psi1 := op.arena.F64(n)
	copy(psi1, op.sqrtPi)
	normalize(psi1)

	// Random start orthogonal to ψ1.
	v := op.arena.F64(n)
	for i := range v {
		v[i] = r.Float64() - 0.5
	}
	orthogonalizePar(par, v, psi1)
	if linalg.Norm2(v) < 1e-12 {
		return nil, errors.New("spectral: degenerate Lanczos start")
	}
	normalize(v)

	basis := [][]float64{v}
	var alphas, betas []float64
	prevLo, prevHi := math.Inf(-1), math.Inf(1)
	converged := false
	w := op.arena.F64(n)
	for k := 0; k < maxIter; k++ {
		vk := basis[len(basis)-1]
		op.Apply(w, vk)
		alpha := par.Dot(w, vk)
		alphas = append(alphas, alpha)
		// w ← w − α·v_k − β_{k−1}·v_{k−1}, then full reorthogonalization.
		par.Axpy(-alpha, vk, w)
		if len(basis) > 1 {
			par.Axpy(-betas[len(betas)-1], basis[len(basis)-2], w)
		}
		orthogonalizePar(par, w, psi1)
		for _, b := range basis {
			orthogonalizePar(par, w, b)
		}
		beta := linalg.Norm2(w)
		if beta < tol {
			converged = true
			break
		}
		if len(alphas)%ritzCheckEvery == 0 && len(alphas) >= 2*ritzCheckEvery {
			lo, hi, err := ritzExtremes(alphas, betas)
			if err != nil {
				return nil, err
			}
			if math.Abs(lo-prevLo) < tol && math.Abs(hi-prevHi) < tol {
				converged = true
				break
			}
			prevLo, prevHi = lo, hi
		}
		betas = append(betas, beta)
		next := op.arena.F64(n)
		copy(next, w)
		linalg.Scale(1/beta, next)
		basis = append(basis, next)
	}

	// Ritz values of the tridiagonal (α, β) matrix.
	k := len(alphas)
	if k == n-1 {
		// The Krylov space of the restriction is complete: the Ritz values
		// are its exact spectrum regardless of how the loop ended.
		converged = true
	}
	lo, hi, err := ritzExtremes(alphas, betas[:k-1])
	if err != nil {
		return nil, err
	}
	return &LanczosResult{
		Lambda2:    hi,
		LambdaMin:  lo,
		Iterations: k,
		Converged:  converged,
	}, nil
}

func normalize(v []float64) {
	n := linalg.Norm2(v)
	if n > 0 {
		linalg.Scale(1/n, v)
	}
}

// orthogonalizePar is the modified-Gram-Schmidt projection step on a worker
// budget: the dot reduces over fixed blocks and the axpy is element-wise,
// so the projection is bit-identical for every worker count.
func orthogonalizePar(par linalg.ParallelConfig, v, against []float64) {
	par.Axpy(-par.Dot(v, against), against, v)
}
