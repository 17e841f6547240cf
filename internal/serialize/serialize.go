// Package serialize persists games and analysis reports as JSON so that
// cmd pipelines can hand games between tools and experiment outputs can be
// archived next to EXPERIMENTS.md. Table games serialize exactly (utility
// tables plus optional potential table); structured families serialize via
// materialization.
package serialize

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
)

// Version tags the on-disk format.
const Version = 1

// GameDoc is the JSON document for a normal-form game.
type GameDoc struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
	// Sizes holds the per-player strategy counts.
	Sizes []int `json:"sizes"`
	// Utils[i] is player i's utility table indexed by profile index in the
	// package game mixed-radix order.
	Utils [][]float64 `json:"utils"`
	// Phi is the optional exact-potential table.
	Phi []float64 `json:"phi,omitempty"`
}

// NewGameDoc materializes g (tabulating its potential if it exposes one)
// into its wire document.
func NewGameDoc(g game.Game, name string) GameDoc {
	t := game.MaterializePar(g, linalg.Serial)
	sp := t.Space()
	doc := GameDoc{
		Version: Version,
		Name:    name,
		Sizes:   make([]int, sp.Players()),
		Utils:   make([][]float64, sp.Players()),
	}
	for i := range doc.Sizes {
		doc.Sizes[i] = sp.Strategies(i)
		doc.Utils[i] = make([]float64, sp.Size())
		for idx := 0; idx < sp.Size(); idx++ {
			doc.Utils[i][idx] = t.UtilityIndexed(i, idx)
		}
	}
	if t.HasPhi() {
		doc.Phi = make([]float64, sp.Size())
		for idx := 0; idx < sp.Size(); idx++ {
			doc.Phi[idx] = t.PhiIndexed(idx)
		}
	}
	return doc
}

// EncodeGame materializes g and writes the JSON document.
func EncodeGame(w io.Writer, g game.Game, name string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(NewGameDoc(g, name))
}

// Build validates the document and rebuilds the table game. The potential
// table, if present, is verified against the utilities before installation
// so a corrupted document cannot smuggle in a wrong Gibbs measure.
func (doc GameDoc) Build() (*game.TableGame, error) {
	if doc.Version != Version {
		return nil, fmt.Errorf("serialize: unsupported version %d", doc.Version)
	}
	if len(doc.Sizes) == 0 {
		return nil, errors.New("serialize: missing strategy counts")
	}
	for i, m := range doc.Sizes {
		if m < 1 {
			return nil, fmt.Errorf("serialize: player %d has %d strategies", i, m)
		}
	}
	t := game.NewTableGame(doc.Sizes)
	sp := t.Space()
	if len(doc.Utils) != sp.Players() {
		return nil, fmt.Errorf("serialize: %d utility tables for %d players", len(doc.Utils), sp.Players())
	}
	for i, tbl := range doc.Utils {
		if len(tbl) != sp.Size() {
			return nil, fmt.Errorf("serialize: player %d table has %d entries for %d profiles",
				i, len(tbl), sp.Size())
		}
		for idx, v := range tbl {
			t.SetUtilityIndexed(i, idx, v)
		}
	}
	if doc.Phi != nil {
		if len(doc.Phi) != sp.Size() {
			return nil, fmt.Errorf("serialize: potential table has %d entries for %d profiles",
				len(doc.Phi), sp.Size())
		}
		t.SetPhiTable(doc.Phi)
		if err := game.VerifyPotential(t, 1e-6); err != nil {
			return nil, fmt.Errorf("serialize: stored potential rejected: %w", err)
		}
	}
	return t, nil
}

// DecodeGameDoc reads a JSON game document without building it, so
// callers can inspect its name and shape first.
func DecodeGameDoc(r io.Reader) (GameDoc, error) {
	var doc GameDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return GameDoc{}, fmt.Errorf("serialize: %w", err)
	}
	return doc, nil
}

// DecodeGame reads a JSON document and rebuilds the table game.
func DecodeGame(r io.Reader) (*game.TableGame, error) {
	doc, err := DecodeGameDoc(r)
	if err != nil {
		return nil, err
	}
	return doc.Build()
}

// ResultDoc archives one analysis result.
type ResultDoc struct {
	Version        int     `json:"version"`
	Game           string  `json:"game,omitempty"`
	Beta           float64 `json:"beta"`
	Eps            float64 `json:"eps"`
	MixingTime     int64   `json:"mixing_time"`
	RelaxationTime float64 `json:"relaxation_time"`
	DeltaPhi       float64 `json:"delta_phi,omitempty"`
	Zeta           float64 `json:"zeta,omitempty"`
}

// EncodeResult writes a result document.
func EncodeResult(w io.Writer, doc ResultDoc) error {
	doc.Version = Version
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// DecodeResult reads a result document.
func DecodeResult(r io.Reader) (ResultDoc, error) {
	var doc ResultDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return ResultDoc{}, fmt.Errorf("serialize: %w", err)
	}
	if doc.Version != Version {
		return ResultDoc{}, fmt.Errorf("serialize: unsupported version %d", doc.Version)
	}
	return doc, nil
}
