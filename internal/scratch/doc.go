// Package scratch is the allocation-recycling layer under the analysis
// hot paths: per-worker arenas of float64/int/bool slices that are checked
// out by shape and reset, not reallocated, so back-to-back analyses of the
// same shape — a sweep's grid points, a benchmark's iterations, a daemon's
// steady-state traffic — stop rebuilding the workspace the previous run
// just threw away.
//
// Ownership rules (these are what make the layer safe, not the code):
//
//   - An Arena is owned by exactly ONE analysis at a time. Serving layers
//     hand an arena out alongside the worker token (service.Pool run token,
//     sweep evaluator slot) and take it back when the analysis returns;
//     concurrent requests therefore never share scratch. The Arena itself
//     is deliberately not thread-safe — sharing one across goroutines is a
//     bug the -race determinism test exists to catch.
//   - A checkout is tied to the analysis, never to the report: a slice
//     obtained from an Arena must not escape into any value that outlives
//     the analysis (a Report payload, a cache entry, a store document).
//     Escaping vectors — the stationary distribution, the small-game
//     potential table — are always allocated fresh by their producers.
//   - Reset/Release recycles every checkout at once. There is no per-slice
//     free; the unit of reuse is the whole analysis.
//   - Every entry point is nil-safe: a nil *Arena allocates fresh slices
//     and a nil *Pool hands out nil arenas. The CLIs and the daemon always
//     run with arenas; a nil arena is the library default and the
//     reference the scratch-invariance tests compare against, and the
//     computed bits are identical either way. Reuse never changes results
//     — checkouts are returned zeroed, exactly like make.
//
// Shape keying is by slice length: a sweep over points of identical
// (profiles, Lanczos block, maxIter) shape re-checks out the same
// buffers — the Lanczos basis block, the CSR arrays, the Gibbs potential
// table — at 100% hit rate after the first point, which is where the
// warm-sweep speedup in BENCH_alloc.json comes from.
package scratch
