package main

import (
	"encoding/json"
	"fmt"
	"os"

	"logitdyn/internal/core"
	"logitdyn/internal/obs"
	"logitdyn/internal/serialize"
	"logitdyn/internal/service"
)

// writeReference recomputes the reference table for every input the
// workloads can generate and writes it to path: in-process analyses with
// core.AnalyzeGame, served analyses and simulations through a service
// handler.
func writeReference(path string) error {
	ref := reference{Analyses: map[string]refAnalysis{}, Simulations: map[string]string{}}
	gs := newGames()
	for _, w := range []analysisWorkload{exactDense, lanczosSparse} {
		all := universe(w.templates, w.levels)
		if err := gs.addAll(all); err != nil {
			return err
		}
		for _, c := range all {
			beta := gs.beta(c)
			rep, err := core.AnalyzeGame(gs.game[specKey(c.spec)], beta, core.Options{Backend: c.backend})
			if err != nil {
				return fmt.Errorf("%s: %w", analysisKey("core", c.spec, c.backend, beta), err)
			}
			ref.Analyses[analysisKey("core", c.spec, c.backend, beta)] = fromCore(rep)
		}
	}
	h := service.New(service.Config{Workers: serveWorkers, Obs: obs.Disabled()}).Handler()
	all := universe(serveTemplates, serveLevels)
	if err := gs.addAll(all); err != nil {
		return err
	}
	for _, c := range all {
		sp, beta := c.spec, gs.beta(c)
		var resp service.AnalyzeResponse
		if err := handlerPost(h, "/v1/analyze", service.AnalyzeRequest{Spec: &sp, Beta: beta}, &resp); err != nil {
			return err
		}
		ref.Analyses[analysisKey("serve", sp, "", beta)] = fromDoc(&resp.Report)
	}
	for _, s := range simUniverse() {
		if err := gs.add(s.spec); err != nil {
			return err
		}
		sp := s.spec
		beta := s.level / gs.deltaPhi[specKey(sp)]
		var doc serialize.SimulationDoc
		req := service.SimulateRequest{Spec: &sp, Beta: beta, Steps: simSteps, Replicas: simReplicas, Seed: s.seed}
		if err := handlerPost(h, "/v1/simulate", req, &doc); err != nil {
			return err
		}
		ref.Simulations[simKey(sp, beta, s.seed)] = simDigest(&doc)
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
