package mixing

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"logitdyn/internal/game"
	"logitdyn/internal/linalg"
	"logitdyn/internal/logit"
)

// The dense exact route now runs under the same worker budget as every
// other hot path (the former "known wart"): the transition build and the
// d(t) sweep thread par instead of defaulting to GOMAXPROCS. The budget
// must never change a single reported value — workers=1 and workers=8
// must agree on every field, including the searched mixing time.
func TestExactMixingTimeWorkerInvariant(t *testing.T) {
	games := map[string]game.Game{}
	dw, err := game.NewDoubleWell(9, 3, 1.0) // 512 profiles: real shard splits
	if err != nil {
		t.Fatal(err)
	}
	games["doublewell-512"] = dw
	coord, err := game.NewCoordination2x2(3, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	games["coordination"] = coord

	for name, g := range games {
		t.Run(name, func(t *testing.T) {
			d, err := logit.New(g, 0.8)
			if err != nil {
				t.Fatal(err)
			}
			measure := func(workers int) *Result {
				res, err := ExactMixingTimePar(d, 0.25, 1<<62,
					linalg.ParallelConfig{Workers: workers, MinRows: 1})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			one, eight := measure(1), measure(8)
			if !reflect.DeepEqual(one, eight) {
				t.Fatalf("workers=1 and workers=8 disagree:\n%+v\nvs\n%+v", one, eight)
			}
			// The dense operator build and the welfare report's own π
			// solve run on the caller's budget too.
			dense := func(workers int) []float64 {
				op, err := d.OperatorScratch(logit.BackendDense,
					linalg.ParallelConfig{Workers: workers, MinRows: 1}, nil)
				if err != nil {
					t.Fatal(err)
				}
				return op.(*linalg.Dense).Data
			}
			if a, b := dense(1), dense(8); !bitsEqual(a, b) {
				t.Fatal("dense operator differs between workers=1 and workers=8")
			}
			welfare := func(workers int) string {
				rep, err := StationaryWelfarePar(d, nil, linalg.ParallelConfig{Workers: workers, MinRows: 1})
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%x %x %x %v", math.Float64bits(rep.Expected),
					math.Float64bits(rep.Optimum), math.Float64bits(rep.WorstNash), rep.OptProfile)
			}
			if a, b := welfare(1), welfare(8); a != b {
				t.Fatalf("welfare report differs between workers=1 and workers=8:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// bitsEqual reports whether a and b hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
