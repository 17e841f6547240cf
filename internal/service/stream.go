// The streaming layer: Server-Sent Events over the sweep and simulation
// engines. GET /v1/sweeps/{id}/stream replays a job's completed rows and
// then follows it live — row and progress events straight out of the
// runner's hooks, a terminal status event when the job ends — through a
// per-job broadcast hub whose bounded per-subscriber buffers guarantee a
// slow client is dropped (with a lagged event) rather than ever blocking
// the runner. POST /v1/simulate/stream runs a simulation and streams
// trajectory snapshots every stride steps, then the same final document
// the non-streaming endpoint returns, byte for byte.
//
// Token discipline: a held SSE connection costs one parked goroutine and
// nothing from the worker-token pool. Only the underlying work — the sweep
// job, the simulation — holds tokens, so a thousand watchers do not starve
// one analysis.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"logitdyn/internal/linalg"
	"logitdyn/internal/obs"
	"logitdyn/internal/rng"
	"logitdyn/internal/sim"
	"logitdyn/internal/sweep"
)

// defaultStreamBuffer is the per-subscriber event buffer when
// Config.StreamBuffer is zero: deep enough to absorb scheduler jitter and
// TCP backpressure blips, small enough that a genuinely stalled client is
// detected within one burst of rows.
const defaultStreamBuffer = 256

// streamEvent is one pre-marshaled SSE event. Payloads are marshaled once
// at broadcast, not once per subscriber.
type streamEvent struct {
	name string
	data []byte
}

// marshalEvent marshals an event payload compactly. Every payload type
// here marshals by construction; an error is a programming bug surfaced as
// a visible error payload rather than a panic inside a runner callback.
func marshalEvent(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return data
}

// SweepProgressDoc is the payload of a sweep stream's progress events.
type SweepProgressDoc struct {
	ID     string         `json:"id"`
	Done   int            `json:"done"`
	Points int            `json:"points"`
	Stats  sweep.RunStats `json:"stats"`
}

// SweepLaggedDoc is the payload of the lagged event that terminates a
// dropped subscriber's stream.
type SweepLaggedDoc struct {
	ID     string `json:"id"`
	Reason string `json:"reason"`
}

// sseStream is one live event-stream response: SSE framing with a flush
// per event, counting frames as they go out.
type sseStream struct {
	s  *Service
	w  http.ResponseWriter
	rc *http.ResponseController
}

// startSSE commits the response to text/event-stream. After this the
// handler can only speak events; errors become status events, not HTTP
// status codes.
func (s *Service) startSSE(w http.ResponseWriter) *sseStream {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	// Proxies that buffer SSE defeat it; nginx honours this opt-out.
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	return &sseStream{s: s, w: w, rc: http.NewResponseController(w)}
}

// send writes one SSE frame and flushes it, so the client sees the event
// now rather than when some buffer fills. An error means the client is
// gone (or the writer cannot flush); the stream is over either way.
func (st *sseStream) send(name string, data []byte) error {
	if _, err := fmt.Fprintf(st.w, "event: %s\ndata: %s\n\n", name, data); err != nil {
		return err
	}
	if err := st.rc.Flush(); err != nil {
		return err
	}
	st.s.streamEvents.Add(1)
	return nil
}

// handleSweepStream is GET /v1/sweeps/{id}/stream: replay completed rows,
// then follow the job live until it ends. No admission gate — watching a
// job submits no work.
func (s *Service) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	s.reqSweeps.Add(1)
	job := s.lookupSweep(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no sweep %q", r.PathValue("id")))
		return
	}
	s.sweepStreams.Add(1)
	s.streamsActive.Add(1)
	defer s.streamsActive.Add(-1)

	// Snapshot + subscribe atomically: every row lands in exactly one of
	// the replay below or the live channel. sub is nil on a terminal job.
	sub, rows, _ := job.subscribe(s.cfg.StreamBuffer)
	if sub != nil {
		defer job.unsubscribe(sub)
	}
	st := s.startSSE(w)
	ctx := r.Context()

	// Replay in completion order — the same order live events use, so the
	// concatenation of everything a subscriber receives, re-sorted by
	// point, is the final table exactly.
	endReplay := obs.StartSpan(ctx, "stream_replay")
	for i := range rows {
		if st.send("row", marshalEvent(rows[i])) != nil {
			endReplay()
			return
		}
	}
	endReplay()

	lagged := false
	if sub != nil {
		endLive := obs.StartSpan(ctx, "stream_live")
		for sub != nil {
			select {
			case ev, ok := <-sub.ch:
				if !ok {
					// Channel closed by the hub: either the job finished
					// (terminal status below) or this subscriber lagged out.
					lagged = sub.lagged
					sub = nil
				} else if st.send(ev.name, ev.data) != nil {
					endLive()
					return
				}
			case <-ctx.Done():
				endLive()
				return
			}
		}
		endLive()
	}
	if lagged {
		s.streamsLagged.Add(1)
		_ = st.send("lagged", marshalEvent(SweepLaggedDoc{
			ID:     job.id,
			Reason: "subscriber fell behind and was dropped; reconnect to the stream or GET the sweep for the full table",
		}))
		return
	}
	_ = st.send("status", marshalEvent(job.statusDoc(false)))
}

// SimulateStreamRequest is SimulateRequest plus the snapshot cadence.
type SimulateStreamRequest struct {
	SimulateRequest
	// Stride is how many steps between trajectory snapshots; 0 picks
	// steps/100 (at least 1), about a hundred snapshots per replica.
	Stride int `json:"stride,omitempty"`
}

// SimSnapshotDoc is one simulate-stream snapshot: where a replica's
// trajectory is after step steps.
type SimSnapshotDoc struct {
	Replica int   `json:"replica"`
	Step    int   `json:"step"`
	Profile []int `json:"profile"`
	// Index is the profile's flat index in the profile space.
	Index int `json:"index"`
}

// SimStreamStatusDoc terminates a simulate stream.
type SimStreamStatusDoc struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// SnapshotsDropped counts snapshots this client's read pace lost;
	// the result document is unaffected — snapshots are samples.
	SnapshotsDropped uint64 `json:"snapshots_dropped"`
}

// simStreamResult crosses from the simulation goroutine back to the
// handler once the worker token is released.
type simStreamResult struct {
	dropped uint64
	err     error
}

// handleSimulateStream is POST /v1/simulate/stream: the same simulation
// as POST /v1/simulate — same validation, same admission gate, same final
// document bytes — streamed as snapshot events while it runs.
func (s *Service) handleSimulateStream(w http.ResponseWriter, r *http.Request) {
	s.reqSimulate.Add(1)
	if !s.admit(w, r) {
		return
	}
	var req SimulateStreamRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Stride < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("stride %d must be >= 0", req.Stride))
		return
	}
	p, err := s.prepareSimulation(req.SimulateRequest)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	stride := req.Stride
	if stride == 0 {
		stride = max(p.steps/100, 1)
	}

	s.simulateStreams.Add(1)
	s.streamsActive.Add(1)
	defer s.streamsActive.Add(-1)

	// The simulation runs in its own goroutine under a worker token; this
	// handler goroutine only writes to the client. Snapshots cross a
	// bounded channel on non-blocking sends, so a slow client loses
	// snapshots (counted) but never holds the token — and the final events
	// go out only after the token is back in the pool.
	snaps := make(chan streamEvent, s.cfg.StreamBuffer)
	done := make(chan simStreamResult, 1)
	ctx := r.Context() // client disconnect cancels the stepping loop
	go func() {
		res := s.runSimulationStream(ctx, p, stride, snaps)
		close(snaps)
		done <- res
	}()

	st := s.startSSE(w)
	clientGone := false
	for ev := range snaps {
		if clientGone {
			continue // drain; ctx cancellation is already stopping the run
		}
		if st.send(ev.name, ev.data) != nil {
			clientGone = true
		}
	}
	res := <-done
	s.streamSnapshotsDropped.Add(res.dropped)
	if clientGone || ctx.Err() != nil {
		return
	}
	if res.err != nil {
		_ = st.send("status", marshalEvent(SimStreamStatusDoc{
			Status: "failed", Error: res.err.Error(), SnapshotsDropped: res.dropped,
		}))
		return
	}
	// The result event carries the exact document POST /v1/simulate would
	// have returned for the same request (compact rather than indented).
	if st.send("result", marshalEvent(p.doc)) != nil {
		return
	}
	_ = st.send("status", marshalEvent(SimStreamStatusDoc{
		Status: "done", SnapshotsDropped: res.dropped,
	}))
}

// runSimulationStream executes the simulation under a worker token,
// emitting a snapshot every stride steps. It runs the batch path's replica
// rule (sim.ReplicaCounts) serially, so snapshots arrive in replica order,
// and each replica advances the same Stepper in stride-sized chunks, so the
// draws and visits are the batch trajectory's. Integer counts merge
// exactly, so the prepared document finishes byte-identical to the
// non-streaming endpoint's.
func (s *Service) runSimulationStream(ctx context.Context, p *simPrep, stride int, snaps chan<- streamEvent) simStreamResult {
	var res simStreamResult
	s.pool.RunClassCtx(ctx, classFrom(ctx), func() {
		endSim := obs.StartSpan(ctx, obs.StageSimulate)
		defer endSim()
		s.simulations.Add(1)
		space := p.d.Space()
		x := make([]int, space.Players())
		stepper := p.d.NewStepper()
		emit := func(replica, step, idx int) {
			snap := SimSnapshotDoc{
				Replica: replica, Step: step,
				Profile: append([]int(nil), x...), Index: idx,
			}
			select {
			case snaps <- streamEvent{name: "snapshot", data: marshalEvent(snap)}:
			default:
				res.dropped++
			}
		}
		counts := sim.ReplicaCounts(p.replicas, p.seed, 1, space.Size(), func(replica int, rg *rng.RNG, acc []int64) {
			if res.err != nil {
				return
			}
			copy(x, p.start)
			idx := space.Encode(x)
			acc[idx]++
			for t := 0; t < p.steps; {
				k := min(stride, p.steps-t)
				idx = stepper.Advance(acc, x, idx, k, rg)
				t += k
				if err := ctx.Err(); err != nil {
					res.err = err
					return
				}
				emit(replica, t, idx)
			}
		})
		if res.err != nil {
			return
		}
		s.finishSimulationDoc(p, counts, linalg.ParallelConfig{Workers: 1})
	})
	return res
}
