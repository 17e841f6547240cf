// Command perfbench is the repository benchmark. It replays a seeded,
// fixed sequence of operations for one named workload, checks every
// output against reference values, and prints the end-to-end metrics
// (--trace 0) or the per-layer ledger of a separately traced run
// (--trace 1) as the last line of standard output:
//
//	bash perfbench/run.sh --workload exact-dense --seed 1 --seconds 25 --trace 0
//
// Workloads (why each was chosen is in BENCHMARK.json):
//
//	exact-dense     core.AnalyzeGame on the dense route, 64–256 profiles
//	lanczos-sparse  core.AnalyzeGame on the sparse/matfree Lanczos route, 2^13–2^16 profiles
//	serve-mix       two HTTP clients against an in-process service with a disk store
//
// Timing conventions: ops_per_s is the median, over the run's windows, of
// ops completed per wall second. A window is one cycle of an analysis
// workload (every cycle holds the same op mix), so a burst of host noise
// in one cycle does not move it; serve-mix is one window, its whole run.
// Op latencies are wall time per op. Per-layer *_ms metrics are layer self
// time summed over the traced run and divided by the traced ops, so on the
// analysis workloads they add up to the op time (ledger.unreconciled_pct
// says how closely). The host is printed on a "host" line, and the tail
// percentile with its sample count on a "detail" line, before the result.
//
// The benchmark only reads and writes inside -workdir (temporary store
// directories) and stops every goroutine and listener it starts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"spectral.mixsearch_ms", "ms", "lower"},
	{"spectral.distance_evals", "count", "lower"},
	{"spectral.decompose_ms", "ms", "lower"},
	{"logit.dense_build_ms", "ms", "lower"},
	{"logit.stationary_ms", "ms", "lower"},
	{"spectral.lanczos_ms", "ms", "lower"},
	{"spectral.lanczos_iters", "count", "lower"},
	{"spectral.matvec_ms", "ms", "lower"},
	{"spectral.reorth_ms", "ms", "lower"},
	{"spectral.reorth_mb_computed", "MB", "lower"},
	{"logit.csr_build_ms", "ms", "lower"},
	{"mixing.stats_ms", "ms", "lower"},
	{"game.equilibria_ms", "ms", "lower"},
	{"mixing.welfare_ms", "ms", "lower"},
	{"linalg.parallel_speedup", "x", "higher"},
	{"sim.simulate_ms", "ms", "lower"},
	{"sim.steps_per_s", "1/s", "higher"},
	{"serialize.encode_ms", "ms", "lower"},
	{"serialize.report_kb", "KB", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.hit_ratio", "ratio", "higher"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.overhead_ms", "ms", "lower"},
	{"service.queue_wait_ms", "ms", "lower"},
	{"sweep.points_per_s", "1/s", "higher"},
	{"sweep.dedup_ratio", "ratio", "higher"},
	{"scratch.hit_ratio", "ratio", "higher"},
	{"ledger.unreconciled_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

var workloads = []string{"exact-dense", "lanczos-sparse", "serve-mix"}

// setupRuns is how many times a run sets the workload up; setup_s is the
// median.
const setupRuns = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts one run's ops, their latencies and failures.
type tally struct {
	lat       []float64 // ms
	kinds     []string  // op kind per latency, when the workload has kinds
	attempted int
	failed    int
	errs      []string
	wall      time.Duration
	// rates are ops per second over the run's windows: each cycle of an
	// analysis workload, the whole run of serve-mix.
	rates []float64
}

func (t *tally) op(d time.Duration) { t.lat = append(t.lat, ms(d)) }

func (t *tally) result(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.kinds = append(t.kinds, o.kinds...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
}

type cacheInfo struct {
	Level int    `json:"level"`
	Type  string `json:"type"`
	KB    int    `json:"kb"`
}

type hostInfo struct {
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	Arch       string      `json:"arch"`
	Caches     []cacheInfo `json:"caches"`
}

// cpuCaches lists the host's CPU caches as Linux describes them under
// /sys/devices/system/cpu/cpu0/cache; elsewhere the list is empty.
func cpuCaches() []cacheInfo {
	var out []cacheInfo
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		level, _ := strconv.Atoi(read("level"))
		kb, _ := strconv.Atoi(strings.TrimSuffix(read("size"), "K"))
		out = append(out, cacheInfo{Level: level, Type: strings.ToLower(read("type")), KB: kb})
	}
	return out
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "exact-dense | lanczos-sparse | serve-mix")
	seed := flag.Uint64("seed", 1, "seed of the generated op sequence")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger of a traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for temporary files")
	writeRef := flag.String("write-reference", "", "recompute the reference table into this file and exit")
	flag.Parse()

	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var res *result
	var detail map[string]any
	switch *workload {
	case "exact-dense":
		res, detail, err = benchAnalysis(exactDense, ref, *seed, *seconds, *trace == 1, false)
	case "lanczos-sparse":
		res, detail, err = benchAnalysis(lanczosSparse, ref, *seed, *seconds, *trace == 1, true)
	case "serve-mix":
		res, detail, err = benchServe(*workdir, ref, *seed, *seconds, *trace == 1)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloads)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	host := hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Arch: runtime.GOARCH, Caches: cpuCaches(),
	}
	detail["workload"], detail["seed"], detail["trace"] = *workload, *seed, *trace
	printLine("host", host)
	printLine("detail", detail)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func printLine(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s %s\n", label, b)
}

// newResult starts a result from a tally with every metric of defs at 0.
func newResult(t *tally, defs []metricDef) *result {
	r := &result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: 0, Unit: d.unit}
	}
	return r
}

func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("unknown metric " + name) // every name is declared above
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Correct = false
		v = 0
	}
	m.Value = v
	r.Metrics[name] = m
}

// endToEndResult fills the end-to-end metrics of an untraced run.
func endToEndResult(t *tally, setup []float64, allocBytes uint64, detail map[string]any) *result {
	r := newResult(t, endToEnd)
	sorted := sortedCopy(t.lat)
	r.set("ops_per_s", medianOf(t.rates))
	r.set("op_p50_ms", median(sorted))
	tv, pct, ok := tail(sorted)
	if !ok {
		r.Correct = false
		detail["error"] = fmt.Sprintf("tail rule needs more than %d ops, got %d", tailBeyond, len(sorted))
	}
	r.set("op_tail_ms", tv)
	r.set("alloc_mb_per_op", float64(allocBytes)/float64(max(t.attempted, 1))/1e6)
	r.set("setup_s", medianOf(setup))
	detail["ops"], detail["timed_s"] = t.attempted, t.wall.Seconds()
	detail["ops_per_s_whole_run"], detail["ops_per_s_windows"] = float64(t.attempted)/t.wall.Seconds(), t.rates
	detail["op_tail_pct"], detail["op_tail_beyond"] = pct, tailBeyond
	detail["setup_runs_s"] = setup
	if len(t.kinds) == len(t.lat) && len(t.kinds) > 0 {
		byKind := map[string][]float64{}
		for i, k := range t.kinds {
			byKind[k] = append(byKind[k], t.lat[i])
		}
		p50 := map[string]float64{}
		for k, v := range byKind {
			p50[k] = medianOf(v)
		}
		detail["op_p50_ms_by_kind"] = p50
	}
	return r
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// benchAnalysis runs exact-dense or lanczos-sparse.
func benchAnalysis(w analysisWorkload, ref *reference, seed uint64, seconds float64, traced, sparse bool) (*result, map[string]any, error) {
	var env *analysisEnv
	var setup []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		e, err := setupAnalysis(w, ref)
		if err != nil {
			return nil, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		env = e
	}
	detail := map[string]any{}
	var t tally
	if !traced {
		a0 := totalAlloc()
		runAnalysis(env, seed, w.cycles(seconds, false), &t)
		r := endToEndResult(&t, setup, totalAlloc()-a0, detail)
		addErrors(detail, &t)
		return r, detail, nil
	}

	led := traceAnalysis(env, seed, w.cycles(seconds, true), &t)
	r := newResult(&t, perLayer)
	addErrors(detail, &t)
	if led.ops == 0 {
		r.Correct = false
		return r, detail, nil
	}
	n := float64(led.ops)
	perOp := func(name string) float64 { return ms(led.self[name]) / n }
	r.set("logit.stationary_ms", perOp("logit.stationary"))
	r.set("logit.dense_build_ms", perOp("logit.dense_build"))
	r.set("logit.csr_build_ms", perOp("logit.csr_build"))
	r.set("spectral.decompose_ms", perOp("spectral.decompose"))
	r.set("spectral.mixsearch_ms", perOp("spectral.mixsearch"))
	r.set("spectral.lanczos_ms", perOp("spectral.lanczos"))
	r.set("mixing.stats_ms", perOp("mixing.stats"))
	r.set("game.equilibria_ms", perOp("game.equilibria"))
	r.set("mixing.welfare_ms", perOp("mixing.welfare"))
	if led.denseOps > 0 {
		r.set("spectral.distance_evals", float64(led.distanceEvals)/float64(led.denseOps))
	}
	if led.sparseOps > 0 {
		so := float64(led.sparseOps)
		matvec := ms(led.matvec) / n
		r.set("spectral.lanczos_iters", float64(led.lanczosIters)/so)
		r.set("spectral.matvec_ms", matvec)
		r.set("spectral.reorth_ms", max(0, perOp("spectral.lanczos")-matvec))
		r.set("spectral.reorth_mb_computed", led.reorthBytes/so/1e6)
	}
	if led.scratchAll > 0 {
		r.set("scratch.hit_ratio", float64(led.scratchHits)/float64(led.scratchAll))
	}
	var layers time.Duration
	for name, d := range led.self {
		if name != "op" {
			layers += d
		}
	}
	r.set("ledger.unreconciled_pct", 100*math.Abs(float64(led.untraced-layers))/float64(led.untraced))
	r.set("trace.overhead_pct", 100*float64(led.tracedRoot-led.untraced)/float64(led.untraced))
	if sparse {
		t := w.templates[len(w.templates)-1] // the 2^16 torus
		c := analysisCase{template: t.name, spec: t.spec, backend: t.backend, level: t.levelsOr(w.levels)[0], jitter: 1}
		sp, err := parallelSpeedup(env, c)
		if err != nil {
			r.Correct = false
			detail["error"] = err.Error()
		}
		r.set("linalg.parallel_speedup", sp)
		detail["parallel_speedup_op"] = t.name
	}
	selfMS := map[string]float64{}
	for name, d := range led.self {
		selfMS[name] = ms(d) / n
	}
	detail["traced_ops"], detail["layer_self_ms_per_op"] = led.ops, selfMS
	detail["untraced_op_ms"] = ms(led.untraced) / n
	detail["computed_not_measured"] = []string{"spectral.distance_evals", "spectral.reorth_mb_computed", "spectral.matvec_ms (iterations × timed Apply)"}
	return r, detail, nil
}

func addErrors(detail map[string]any, t *tally) {
	if len(t.errs) > 0 {
		detail["errors"] = t.errs
	}
}

// benchServe runs serve-mix.
func benchServe(workdir string, ref *reference, seed uint64, seconds float64, traced bool) (*result, map[string]any, error) {
	var env *serveEnv
	var setup []float64
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		e, err := setupServe(workdir, seed, false, ref)
		if err != nil {
			return nil, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if env != nil {
			env.close()
		}
		env = e
	}
	detail := map[string]any{}
	var t tally
	if !traced {
		a0 := totalAlloc()
		runServe(env, seed, seconds, &t)
		r := endToEndResult(&t, setup, totalAlloc()-a0, detail)
		addErrors(detail, &t)
		return r, detail, nil
	}

	// Untraced half, then a traced half against a fresh service with
	// observability on; the difference is the tracing overhead.
	runServe(env, seed, seconds/2, &t)
	untracedMean := mean(t.lat)
	tenv, err := setupServe(workdir, seed, true, ref)
	if err != nil {
		return nil, nil, err
	}
	defer tenv.close()
	m0, err := tenv.metricsDoc()
	if err != nil {
		return nil, nil, err
	}
	var tt tally
	led, err := traceServe(tenv, seed, seconds/2, &tt)
	if err != nil {
		return nil, nil, err
	}
	tracedMean := mean(tt.lat)
	m1, err := tenv.metricsDoc()
	if err != nil {
		return nil, nil, err
	}
	t.merge(&tt)
	r := newResult(&t, perLayer)
	addErrors(detail, &t)
	if led.ops == 0 {
		r.Correct = false
		return r, detail, nil
	}
	n := float64(led.ops)
	perOp := func(stage string) float64 { return ms(led.stage[stage]) / n }
	r.set("logit.stationary_ms", perOp("stationary"))
	r.set("serialize.encode_ms", perOp("serialize"))
	r.set("store.get_ms", perOp("store_get"))
	r.set("store.put_ms", perOp("store_put"))
	r.set("service.queue_wait_ms", perOp("queue_wait"))
	r.set("sim.simulate_ms", perOp("simulate"))
	r.set("service.overhead_ms", ms(led.serviceSelf)/n)
	if s := led.stage["simulate"].Seconds(); s > 0 {
		r.set("sim.steps_per_s", led.simSteps/s)
	}
	if led.reports > 0 {
		r.set("serialize.report_kb", float64(led.reportBytes)/float64(led.reports)/1024)
	}
	if led.sweepSecs > 0 {
		r.set("sweep.points_per_s", float64(led.sweepPoints)/led.sweepSecs)
	}
	if led.sweepPoints > 0 {
		r.set("sweep.dedup_ratio", float64(led.sweepDups)/float64(led.sweepPoints))
	}
	hits := m1.Cache.Hits + m1.Cache.SingleflightWaits - m0.Cache.Hits - m0.Cache.SingleflightWaits
	if all := hits + m1.Cache.Misses - m0.Cache.Misses; all > 0 {
		r.set("service.cache_hit_ratio", float64(hits)/float64(all))
	}
	if m0.Store != nil && m1.Store != nil {
		sh := m1.Store.Hits - m0.Store.Hits
		if all := sh + m1.Store.Misses - m0.Store.Misses; all > 0 {
			r.set("store.hit_ratio", float64(sh)/float64(all))
		}
	}
	if m0.Scratch != nil && m1.Scratch != nil {
		sh := m1.Scratch.Hits - m0.Scratch.Hits
		if all := sh + m1.Scratch.Misses - m0.Scratch.Misses; all > 0 {
			r.set("scratch.hit_ratio", float64(sh)/float64(all))
		}
	}
	r.set("ledger.unreconciled_pct", 100*math.Abs(ms(led.selfSum)/n-untracedMean)/untracedMean)
	r.set("trace.overhead_pct", 100*(tracedMean-untracedMean)/untracedMean)
	stageMS := map[string]float64{}
	for name, d := range led.stage {
		stageMS[name] = ms(d) / n
	}
	detail["traced_ops"], detail["stage_self_ms_per_op"] = led.ops, stageMS
	detail["untraced_op_ms"], detail["traced_op_ms"] = untracedMean, tracedMean
	return r, detail, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
