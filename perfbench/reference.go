package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"logitdyn/internal/core"
	"logitdyn/internal/serialize"
)

// referenceJSON holds the expected outputs of every input the workloads
// can generate, as the program produced them when the benchmark was
// defined. Regenerate with -write-reference after a deliberate numeric
// change.
//
//go:embed reference.json
var referenceJSON []byte

// refAnalysis is the checked part of one analysis report.
type refAnalysis struct {
	Exact      bool    `json:"exact"`
	TMix       int64   `json:"t_mix"`
	LambdaStar float64 `json:"lambda_star"`
	TRel       float64 `json:"t_rel"`
	Lower      float64 `json:"lower"`
	Upper      float64 `json:"upper"`
	Iters      int     `json:"lanczos_iters"`
	Converged  bool    `json:"converged"`
}

// reference is the whole table: analyses by analysisKey, simulation
// digests by simKey.
type reference struct {
	Analyses    map[string]refAnalysis `json:"analyses"`
	Simulations map[string]string      `json:"simulations"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference table: %w", err)
	}
	return &ref, nil
}

func fromCore(r *core.Report) refAnalysis {
	return refAnalysis{
		Exact: r.MixingTimeExact, TMix: r.MixingTime, LambdaStar: r.LambdaStar, TRel: r.RelaxationTime,
		Lower: r.SpectralLower, Upper: r.SpectralUpper, Iters: r.LanczosIterations, Converged: r.SpectralConverged,
	}
}

func fromDoc(d *serialize.ReportDoc) refAnalysis {
	return refAnalysis{
		Exact: d.MixingTimeExact, TMix: d.MixingTime, LambdaStar: float64(d.LambdaStar), TRel: float64(d.RelaxationTime),
		Lower: float64(d.SpectralLower), Upper: float64(d.SpectralUpper), Iters: d.LanczosIterations, Converged: d.SpectralConverged,
	}
}

// relTol is the relative tolerance on λ*, t_rel and the sandwich ends.
const relTol = 1e-9

func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// check compares one analysis against the reference entry under key: the
// exact t_mix (or Lanczos iteration count) must match, λ*, t_rel and the
// Theorem 2.3 sandwich must agree within relTol, and the sandwich must
// bracket t_mix.
func (ref *reference) check(key string, got refAnalysis) error {
	want, ok := ref.Analyses[key]
	if !ok {
		return fmt.Errorf("no reference for %s", key)
	}
	switch {
	case got.Exact != want.Exact:
		return fmt.Errorf("%s: exact %v, want %v", key, got.Exact, want.Exact)
	case got.Converged != want.Converged:
		return fmt.Errorf("%s: converged %v, want %v", key, got.Converged, want.Converged)
	case got.TMix != want.TMix:
		return fmt.Errorf("%s: t_mix %d, want %d", key, got.TMix, want.TMix)
	case got.Iters != want.Iters:
		return fmt.Errorf("%s: lanczos iterations %d, want %d", key, got.Iters, want.Iters)
	case !relClose(got.LambdaStar, want.LambdaStar):
		return fmt.Errorf("%s: λ* %v, want %v", key, got.LambdaStar, want.LambdaStar)
	case !relClose(got.TRel, want.TRel):
		return fmt.Errorf("%s: t_rel %v, want %v", key, got.TRel, want.TRel)
	case !relClose(got.Lower, want.Lower) || !relClose(got.Upper, want.Upper):
		return fmt.Errorf("%s: sandwich [%v, %v], want [%v, %v]", key, got.Lower, got.Upper, want.Lower, want.Upper)
	case !(got.Lower <= got.Upper):
		return fmt.Errorf("%s: sandwich [%v, %v] is empty", key, got.Lower, got.Upper)
	case got.Exact && !(got.Lower <= float64(got.TMix) && float64(got.TMix) <= got.Upper):
		return fmt.Errorf("%s: t_mix %d outside the Thm 2.3 sandwich [%v, %v]", key, got.TMix, got.Lower, got.Upper)
	}
	return nil
}

// simDigest fingerprints a simulation document's numbers: the empirical
// occupancy and the TV distance to Gibbs, bit for bit.
func simDigest(d *serialize.SimulationDoc) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range d.Empirical {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(d.TVGibbs)))
	h.Write(b[:])
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func (ref *reference) checkSim(key string, d *serialize.SimulationDoc) error {
	want, ok := ref.Simulations[key]
	if !ok {
		return fmt.Errorf("no reference for %s", key)
	}
	if got := simDigest(d); got != want {
		return fmt.Errorf("%s: counts digest %s, want %s", key, got, want)
	}
	return nil
}
