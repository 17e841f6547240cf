package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"logitdyn/internal/obs"
	"logitdyn/internal/serialize"
	"logitdyn/internal/service"
	"logitdyn/internal/spec"
	"logitdyn/internal/store"
	"logitdyn/internal/sweep"
)

// serve-mix: two closed-loop clients against an in-process service on a
// loopback listener, with Workers: 2, a small memory cache and a disk
// store in a temporary directory under the build directory.
//
// The sizes are designed, not taken from observed traffic. The memory
// cache holds three times the hot set, so hot keys stay resident while
// cold analyses and store reads churn the other slots. The store set is
// every other analysis input a run can draw (64, over twice the cache),
// so set-up analyzes the same inputs for every seed, and each client walks
// it in order, so a store key has always left the memory tier by the time
// it is read again and every store read is served by the disk tier.
const (
	serveClients = 2
	serveWorkers = 2
	serveCache   = 24 // memory-cache reports
	hotKeys      = 8  // analyses warmed into the memory tier; the rest go to the store tier only
	batchItems   = 4
	traceRing    = 1 << 15
)

// serveCycle is one client's op mix; each client runs it in seeded order.
// The weights are designed so that each end-to-end metric has its layers:
//   - cached reads (hot, store, a batch of hot keys) are 6 of 20 ops and
//     the cold analyses 2 of 20; on a 2-core x86_64 host they take about
//     0.3–1.2 ms and 7 ms at the median, against 20–25 ms for a
//     simulation;
//   - simulate is 11 of 20, so most ops around the median are
//     simulations and op_p50_ms moves with sim.simulate_ms and
//     sim.steps_per_s;
//   - sweeps and cold analyses write the store beside those reads; the
//     tail holds the ops that waited for one of the two workers, so
//     op_tail_ms moves with service.queue_wait_ms.
//
// The cached-read layers (cache, store reads, serialization) sit below the
// median, so they move alloc_mb_per_op and ops_per_s rather than
// op_p50_ms.
var serveCycle = []struct {
	kind  string
	count int
}{
	{"hot", 3}, {"store", storeOpsPerCycle}, {"batch", 1}, {"cold", 2}, {"simulate", 11}, {"sweep", 1},
}

const storeOpsPerCycle = 2

// simCase is one /v1/simulate input before β is resolved.
type simCase struct {
	spec  spec.Spec
	level float64
	seed  uint64
}

func simUniverse() []simCase {
	var out []simCase
	for _, t := range simTemplates {
		for _, lv := range simLevels {
			for _, s := range simSeeds {
				out = append(out, simCase{spec: t.spec, level: lv, seed: s})
			}
		}
	}
	return out
}

// serveOp is one client op; "warm" is the set-up's first, uncached read of
// a hot key.
type serveOp struct {
	kind  string
	cases []analysisCase // warm/hot/store/cold: 1, batch: batchItems, sweep: 2 β values of one game
	sim   simCase
}

// serveEnv is one set-up of serve-mix.
type serveEnv struct {
	dir    string
	svc    *service.Service
	srv    *http.Server
	served chan struct{}
	base   string
	client *http.Client
	gs     *games
	ref    *reference
	all    []analysisCase
	hot    []analysisCase
	stored []analysisCase
	sims   []simCase
	// sweepable are the deterministic templates: a seed axis over one of
	// them yields duplicate points.
	sweepable []template
	// maxT makes every cold op's cache key unique without changing its
	// report: the cap is far above any t_mix in the regime bound.
	maxT atomic.Int64
}

// coldMaxT is the first max_t a cold op sends.
const coldMaxT = 1 << 50

// planServe builds the games and draws the hot and store sets from the
// seed; it starts nothing.
func planServe(seed uint64, ref *reference) (*serveEnv, error) {
	e := &serveEnv{gs: newGames(), ref: ref, all: universe(serveTemplates, serveLevels), sims: simUniverse()}
	e.maxT.Store(coldMaxT)
	for _, t := range serveTemplates {
		if len(t.seeds) == 0 {
			e.sweepable = append(e.sweepable, t)
		}
	}
	if err := e.gs.addAll(e.all); err != nil {
		return nil, err
	}
	for _, s := range e.sims {
		if err := e.gs.add(s.spec); err != nil {
			return nil, err
		}
	}
	for i, k := range pickDistinct(newGen(seed, 1<<40), len(e.all), len(e.all)) {
		if i < hotKeys {
			e.hot = append(e.hot, e.all[k])
		} else {
			e.stored = append(e.stored, e.all[k])
		}
	}
	return e, nil
}

// setupServe plans the run, opens a store in a fresh temporary directory,
// warms it with the store set through a first service, starts the
// measured service on a loopback listener over the same store, warms its
// memory tier with the hot set and runs one untimed op of each kind.
func setupServe(workdir string, seed uint64, traced bool, ref *reference) (env *serveEnv, err error) {
	e, err := planServe(seed, ref)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	if e.dir, err = os.MkdirTemp(workdir, "serve-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	st, err := store.Open(filepath.Join(e.dir, "store"), store.Options{})
	if err != nil {
		return nil, err
	}
	cfg := service.Config{CacheSize: serveCache, Workers: serveWorkers, Store: st, Obs: obs.Disabled()}
	warm := service.New(cfg).Handler()
	for _, c := range e.stored {
		var resp service.AnalyzeResponse
		if err := handlerPost(warm, "/v1/analyze", e.analyzeRequest(c, 0), &resp); err != nil {
			return nil, err
		}
		if err := e.checkAnalysis(c, &resp, false); err != nil {
			return nil, err
		}
	}

	if traced {
		// The ring holds every trace of the traced phase, read after it.
		cfg.Obs = obs.New(traceRing)
	}
	e.svc = service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: e.svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	e.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	for _, c := range e.hot {
		if _, err := e.run(serveOp{kind: "warm", cases: []analysisCase{c}}); err != nil {
			return nil, fmt.Errorf("warm hot set: %w", err)
		}
	}
	warmed := map[string]bool{}
	for _, op := range e.clientCycle(seed, serveClients, 0) {
		if warmed[op.kind] {
			continue
		}
		warmed[op.kind] = true
		if _, err := e.run(op); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", op.kind, err)
		}
	}
	return e, nil
}

// close stops the server, waits for it and for running sweep jobs, and
// removes the temporary directory.
func (e *serveEnv) close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.srv.Shutdown(ctx) // a timeout still leaves Serve returning below
		cancel()
		<-e.served
		e.client.CloseIdleConnections()
		for i := 0; i < 1000 && e.svc.Metrics().Sweeps.Running > 0; i++ {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// clientCycle is client k's cycle c: the serveCycle mix in seeded order
// with seeded inputs. Store reads walk the store set from a per-client
// offset, so a key is re-read only after the memory tier has evicted it.
func (e *serveEnv) clientCycle(seed uint64, client, c int) []serveOp {
	g := newGen(seed, uint64(client+1)<<32|uint64(c))
	var ops []serveOp
	storeAt := client*len(e.stored)/serveClients + c*storeOpsPerCycle
	for _, k := range serveCycle {
		for i := 0; i < k.count; i++ {
			op := serveOp{kind: k.kind}
			switch k.kind {
			case "hot":
				op.cases = []analysisCase{e.hot[g.intn(len(e.hot))]}
			case "store":
				op.cases = []analysisCase{e.stored[storeAt%len(e.stored)]}
				storeAt++
			case "cold":
				op.cases = []analysisCase{e.all[g.intn(len(e.all))]}
			case "simulate":
				op.sim = e.sims[g.intn(len(e.sims))]
			case "batch":
				for _, j := range pickDistinct(g, len(e.hot), batchItems) {
					op.cases = append(op.cases, e.hot[j])
				}
			case "sweep":
				// A deterministic family: its two seed-axis replicates
				// collapse, so half the points are duplicates.
				t := e.sweepable[g.intn(len(e.sweepable))]
				for _, j := range pickDistinct(g, len(serveLevels)*len(jitters), 2) {
					op.cases = append(op.cases, analysisCase{template: t.name, spec: t.spec, level: serveLevels[j/len(jitters)], jitter: jitters[j%len(jitters)]})
				}
			}
			ops = append(ops, op)
		}
	}
	g.shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (e *serveEnv) analyzeRequest(c analysisCase, maxT int64) service.AnalyzeRequest {
	sp := c.spec
	return service.AnalyzeRequest{Spec: &sp, Beta: e.gs.beta(c), MaxT: maxT}
}

func (e *serveEnv) refKey(c analysisCase) string {
	return analysisKey("serve", c.spec, "", e.gs.beta(c))
}

func (e *serveEnv) checkAnalysis(c analysisCase, resp *service.AnalyzeResponse, wantCached bool) error {
	if resp.Cached != wantCached {
		return fmt.Errorf("%s: cached %v, want %v", e.refKey(c), resp.Cached, wantCached)
	}
	return e.ref.check(e.refKey(c), fromDoc(&resp.Report))
}

// exchange is one HTTP request of an op: its client-side latency, the
// service's trace id (empty with observability off) and the body size.
type exchange struct {
	latency time.Duration
	traceID string
	bytes   int
}

// opRecord is what one op leaves behind: its latency, from the first
// request sent to the last response byte read (decoding and checking the
// final response are not timed), and for the traced ledger its exchanges.
type opRecord struct {
	kind       string
	start, end time.Time
	exchanges  []exchange
	jobTrace   string
	sweep      *service.SweepStatusDoc
}

// do sends one request and reads the whole body; the latency covers send
// to last byte. out, when set, receives the decoded JSON body.
func (e *serveEnv) do(method, path string, body any, out any, rec *opRecord) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return err
	}
	if rec != nil {
		if rec.start.IsZero() {
			rec.start = t0
		}
		rec.end = t1
		rec.exchanges = append(rec.exchanges, exchange{latency: t1.Sub(t0), traceID: resp.Header.Get("X-Trace-Id"), bytes: len(data)})
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// run executes and checks one op.
func (e *serveEnv) run(op serveOp) (*opRecord, error) {
	rec := &opRecord{kind: op.kind}
	switch op.kind {
	case "warm", "hot", "store", "cold":
		c := op.cases[0]
		var maxT int64
		if op.kind == "cold" {
			maxT = e.maxT.Add(1)
		}
		var resp service.AnalyzeResponse
		if err := e.do("POST", "/v1/analyze", e.analyzeRequest(c, maxT), &resp, rec); err != nil {
			return rec, err
		}
		return rec, e.checkAnalysis(c, &resp, op.kind == "hot" || op.kind == "store")
	case "simulate":
		s := op.sim
		sp := s.spec
		beta := s.level / e.gs.deltaPhi[specKey(sp)]
		var doc serialize.SimulationDoc
		req := service.SimulateRequest{Spec: &sp, Beta: beta, Steps: simSteps, Replicas: simReplicas, Seed: s.seed}
		if err := e.do("POST", "/v1/simulate", req, &doc, rec); err != nil {
			return rec, err
		}
		return rec, e.ref.checkSim(simKey(sp, beta, s.seed), &doc)
	case "batch":
		req := service.BatchRequest{}
		for _, c := range op.cases {
			req.Items = append(req.Items, e.analyzeRequest(c, 0))
		}
		var resp service.BatchResponse
		if err := e.do("POST", "/v1/analyze/batch", req, &resp, rec); err != nil {
			return rec, err
		}
		if len(resp.Results) != len(op.cases) {
			return rec, fmt.Errorf("batch: %d results for %d items", len(resp.Results), len(op.cases))
		}
		for i, r := range resp.Results {
			if r.Error != "" || r.AnalyzeResponse == nil {
				return rec, fmt.Errorf("batch item %d: %s", i, r.Error)
			}
			if err := e.checkAnalysis(op.cases[i], r.AnalyzeResponse, true); err != nil {
				return rec, err
			}
		}
		return rec, nil
	case "sweep":
		return rec, e.runSweep(op, rec)
	}
	return rec, fmt.Errorf("unknown op kind %q", op.kind)
}

// runSweep posts a 4-point grid (two β values × two seed replicates of a
// deterministic game, with a fresh max_t so the points are analyzed) and
// long-polls it to completion.
func (e *serveEnv) runSweep(op serveOp, rec *opRecord) error {
	byBeta := map[float64]analysisCase{}
	var betas []float64
	for _, c := range op.cases {
		b := e.gs.beta(c)
		byBeta[b] = c
		betas = append(betas, b)
	}
	grid := sweep.Grid{
		Base: op.cases[0].spec,
		Axes: sweep.Axes{Seed: []uint64{1, 2}, Beta: &sweep.Schedule{Values: betas}},
		MaxT: e.maxT.Add(1),
	}
	var created service.SweepCreatedDoc
	if err := e.do("POST", "/v1/sweeps", grid, &created, rec); err != nil {
		return err
	}
	var st service.SweepStatusDoc
	if err := e.do("GET", "/v1/sweeps/"+created.ID+"?wait=60s", nil, &st, rec); err != nil {
		return err
	}
	rec.sweep, rec.jobTrace = &st, st.TraceID
	if st.Status != "done" || st.Done != st.Points || st.Points != 4 || st.Stats.Duplicates != 2 {
		return fmt.Errorf("sweep %s: status %s, %d/%d points, %d duplicates", st.ID, st.Status, st.Done, st.Points, st.Stats.Duplicates)
	}
	for _, row := range st.Rows {
		c, ok := byBeta[float64(row.Beta)]
		if !ok || row.Error != "" {
			return fmt.Errorf("sweep %s row %d: β %v, error %q", st.ID, row.Point, float64(row.Beta), row.Error)
		}
		got := refAnalysis{
			Exact: row.MixingTimeExact, TMix: row.MixingTime, LambdaStar: float64(row.LambdaStar),
			TRel: float64(row.RelaxationTime), Lower: float64(row.SpectralLower), Upper: float64(row.SpectralUpper),
			Iters: row.LanczosIterations, Converged: row.SpectralConverged,
		}
		if err := e.ref.check(e.refKey(c), got); err != nil {
			return err
		}
	}
	return nil
}

// runServe drives the clients for seconds and returns every op's record.
func runServe(e *serveEnv, seed uint64, seconds float64, tl *tally) []*opRecord {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	tallies := make([]tally, serveClients)
	recs := make([][]*opRecord, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for c := 0; time.Now().Before(deadline); c++ {
				for _, op := range e.clientCycle(seed, k, c) {
					if !time.Now().Before(deadline) {
						break
					}
					t0 := time.Now()
					rec, err := e.run(op)
					if rec.start.IsZero() {
						rec.start, rec.end = t0, time.Now()
					}
					tallies[k].op(rec.end.Sub(rec.start))
					tallies[k].kinds = append(tallies[k].kinds, op.kind)
					tallies[k].result(err)
					recs[k] = append(recs[k], rec)
				}
			}
		}(k)
	}
	wg.Wait()
	tl.wall = time.Since(start)
	var all []*opRecord
	for k := range tallies {
		tl.merge(&tallies[k])
		all = append(all, recs[k]...)
	}
	// The whole run is one window: a 2 s slice holds too few of the heavy
	// ops for its rate to be steady.
	tl.rates = []float64{float64(tl.attempted) / tl.wall.Seconds()}
	return all
}

// serveLedger is the traced serve-mix run, built from the spans the
// service records and serves at /v1/traces/{id}.
type serveLedger struct {
	ops         int
	selfSum     time.Duration // transport + service self + stage spans
	stage       map[string]time.Duration
	serviceSelf time.Duration
	simSteps    float64
	reportBytes int
	reports     int
	sweepPoints int
	sweepDups   int
	sweepSecs   float64
}

// fetchTrace reads one finished trace, waiting briefly for the request
// that owns it to finish recording.
func (e *serveEnv) fetchTrace(id string) (obs.TraceDoc, error) {
	for i := 0; ; i++ {
		var doc obs.TraceDoc
		if err := e.do("GET", "/v1/traces/"+id, nil, &doc, nil); err != nil {
			return doc, err
		}
		if doc.Done {
			return doc, nil
		}
		if i == 500 {
			return doc, fmt.Errorf("trace %s never finished", id)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// traceSpans turns a trace document into spans under one root.
func traceSpans(doc obs.TraceDoc) []span {
	spans := []span{{name: "service", iv: interval{0, time.Duration(doc.DurationNanos)}, parent: -1}}
	for _, s := range doc.Spans {
		spans = append(spans, span{name: s.Stage, iv: interval{time.Duration(s.StartNanos), time.Duration(s.StartNanos + s.DurNanos)}, parent: 0})
	}
	return spans
}

// traceServe runs the clients against a traced service, then reads the
// trace of every request (and of every sweep job) the ops made.
func traceServe(e *serveEnv, seed uint64, seconds float64, tl *tally) (*serveLedger, error) {
	led := &serveLedger{stage: map[string]time.Duration{}}
	recs := runServe(e, seed, seconds, tl)
	for _, rec := range recs {
		if len(rec.exchanges) == 0 {
			continue
		}
		led.ops++
		var opSelf time.Duration
		for _, x := range rec.exchanges {
			if x.traceID == "" {
				return nil, errors.New("traced service returned no X-Trace-Id")
			}
			doc, err := e.fetchTrace(x.traceID)
			if err != nil {
				return nil, err
			}
			self := selfTimes(traceSpans(doc))
			for name, d := range self {
				opSelf += d
				if name == "service" {
					led.serviceSelf += d
				} else {
					led.stage[name] += d
				}
			}
			opSelf += x.latency - time.Duration(doc.DurationNanos) // transport
		}
		led.selfSum += opSelf
		switch rec.kind {
		case "hot", "store", "cold":
			led.reportBytes += rec.exchanges[0].bytes
			led.reports++
		case "simulate":
			led.simSteps += simSteps * simReplicas
		case "sweep":
			if rec.sweep != nil {
				led.sweepPoints += rec.sweep.Points
				led.sweepDups += rec.sweep.Stats.Duplicates
				led.sweepSecs += rec.sweep.ElapsedSeconds
			}
			if rec.jobTrace != "" {
				doc, err := e.fetchTrace(rec.jobTrace)
				if err != nil {
					return nil, err
				}
				for name, d := range selfTimes(traceSpans(doc)) {
					if name != "service" {
						led.stage[name] += d
					}
				}
			}
		}
	}
	return led, nil
}

// metricsDoc reads GET /metrics.
func (e *serveEnv) metricsDoc() (service.MetricsDoc, error) {
	var m service.MetricsDoc
	err := e.do("GET", "/metrics", nil, &m, nil)
	return m, err
}

// handlerPost runs one JSON request against a handler in process.
func handlerPost(h http.Handler, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(b)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("POST %s: %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}
