// Canonical game hashing: a deterministic content hash over a game's
// materialized payoff/potential tables, player structure, β and the
// normalized analysis options, so structurally identical requests —
// however they were spelled (named family spec, explicit table document,
// different zero-value option spellings) — map to one key. The same key
// addresses both the in-memory LRU tier and the on-disk entries of this
// package's Store, which is what makes results reusable across daemon
// restarts and across serving/CLI entry points.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"logitdyn/internal/core"
	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
)

// hashVersion tags the key derivation; bump it whenever the hashed content
// or its encoding changes, so stale keys can never alias fresh ones.
const hashVersion = "logitdyn-key-v1"

// canonBits maps a float64 to canonical bits: -0 collapses to +0 and every
// NaN payload to one quiet NaN, so bitwise-distinct but semantically equal
// tables hash identically.
func canonBits(v float64) uint64 {
	if math.IsNaN(v) {
		return 0x7ff8000000000000
	}
	if v == 0 {
		return 0
	}
	return math.Float64bits(v)
}

type hasher struct {
	sum hash.Hash
	buf [8]byte
}

func (hs *hasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(hs.buf[:], v)
	hs.sum.Write(hs.buf[:])
}

func (hs *hasher) f64(v float64) { hs.u64(canonBits(v)) }

// GameDigest hashes a game's canonical table content — player structure,
// utilities, optional potential — independent of β and options. A β-sweep
// over one game digests it once and derives per-β keys with KeyFrom.
func GameDigest(g game.Game) [32]byte {
	t, ok := g.(*game.TableGame)
	if !ok {
		t = game.MaterializePar(g, linalg.Serial)
	}
	sp := t.Space()

	hs := &hasher{sum: sha256.New()}
	hs.sum.Write([]byte(hashVersion))
	hs.u64(uint64(sp.Players()))
	for i := 0; i < sp.Players(); i++ {
		hs.u64(uint64(sp.Strategies(i)))
	}
	for i := 0; i < sp.Players(); i++ {
		for idx := 0; idx < sp.Size(); idx++ {
			hs.f64(t.UtilityIndexed(i, idx))
		}
	}
	if t.HasPhi() {
		hs.u64(1)
		for idx := 0; idx < sp.Size(); idx++ {
			hs.f64(t.PhiIndexed(idx))
		}
	} else {
		hs.u64(0)
	}
	var d [32]byte
	hs.sum.Sum(d[:0])
	return d
}

// KeyFrom combines a game digest with β and the normalized options into a
// cache key. The backend is part of the key: a dense exact report and a
// sparse sandwich report of the same (game, β) pair are different answers.
func KeyFrom(digest [32]byte, beta float64, opts core.Options) string {
	opts = opts.Normalized()
	hs := &hasher{sum: sha256.New()}
	hs.sum.Write(digest[:])
	hs.f64(beta)
	hs.f64(opts.Eps)
	hs.u64(uint64(opts.MaxT))
	hs.u64(uint64(len(opts.Backend)))
	hs.sum.Write([]byte(opts.Backend))
	return hex.EncodeToString(hs.sum.Sum(nil))
}

// CanonicalKey derives the cache key for analyzing game g at inverse noise
// beta under opts. The game is materialized into its canonical table form
// first, so a lazily-represented family and its explicit table document
// hash identically.
func CanonicalKey(g game.Game, beta float64, opts core.Options) string {
	return KeyFrom(GameDigest(g), beta, opts)
}
