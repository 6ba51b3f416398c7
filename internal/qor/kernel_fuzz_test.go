package qor_test

import (
	"flag"
	"math/rand"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/qor"
)

// Differential fuzz of the three evaluation paths on random circuits nobody
// hand-picked: for seeded random netlists and seeded random block
// implementations, the lane-packed batch kernel, the scalar incremental
// comparer, and the paper-literal rebuild (logic.ReplaceBlocks +
// Evaluator.Compare) must report bit-identical QoR — including across
// commits, mixed lane widths, and candidate chunks wider and narrower than
// the lane width. The CI kernel job runs this repeatedly under -race.

var fuzzSeeds = flag.Int("kernelfuzz.seeds", 6, "random circuits per kernel fuzz run")

// randImpl builds a seeded random implementation with the given I/O shape:
// random gates over the inputs and earlier gates, outputs drawn from the
// whole pool (constants included), so behaviors range from constant and
// pass-through to dense mixing.
func randImpl(rng *rand.Rand, nIn, nOut int) *logic.Circuit {
	b := logic.NewBuilder("fuzzimpl")
	ids := b.Inputs("i", nIn)
	ids = append(ids, b.Const(false), b.Const(true))
	ops := []logic.Op{
		logic.And, logic.Or, logic.Xor, logic.Nand,
		logic.Nor, logic.Xnor, logic.Not, logic.Mux,
	}
	for g, n := 0, rng.Intn(12); g < n; g++ {
		op := ops[rng.Intn(len(ops))]
		pick := func() logic.NodeID { return ids[rng.Intn(len(ids))] }
		var id logic.NodeID
		switch op.Arity() {
		case 1:
			id = b.Gate(op, pick())
		case 2:
			id = b.Gate(op, pick(), pick())
		default:
			id = b.Gate(op, pick(), pick(), pick())
		}
		ids = append(ids, id)
	}
	for o := 0; o < nOut; o++ {
		b.Output("o", ids[rng.Intn(len(ids))])
	}
	return b.C
}

func TestKernelFuzzDifferential(t *testing.T) {
	nSeeds := *fuzzSeeds
	if testing.Short() {
		nSeeds = 2
	}
	for seed := int64(1); seed <= int64(nSeeds); seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed * 9176))
			bc := bench.RandomCircuit(rng, bench.RandomOptions{
				Inputs:  5 + rng.Intn(5),
				Gates:   40 + rng.Intn(80),
				Outputs: 3 + rng.Intn(5),
			})
			prepared := logic.ReorderDFS(logic.Sweep(bc.Circ))
			spec := qor.Unsigned("z", len(prepared.Outputs))
			blocks, err := partition.Decompose(prepared, partition.Options{MaxInputs: 5, MaxOutputs: 3})
			if err != nil || len(blocks) == 0 {
				t.Skipf("decompose: %v (%d blocks)", err, len(blocks))
			}
			samples := fuzzSampleCounts[rng.Intn(len(fuzzSampleCounts))]
			ic, err := qor.NewIncrementalComparer(prepared, spec, blocks, samples, seed)
			if err != nil {
				t.Fatal(err)
			}
			eval, err := qor.NewEvaluator(prepared, spec, samples, seed)
			if err != nil {
				t.Fatal(err)
			}
			committed := map[int]*logic.Circuit{}
			literal := func(bi int, impl *logic.Circuit) qor.Report {
				t.Helper()
				merged := map[int]*logic.Circuit{bi: impl}
				for cb, ci := range committed {
					if cb != bi {
						merged[cb] = ci
					}
				}
				circ, err := logic.ReplaceBlocks(prepared, partition.Substitutions(blocks, merged))
				if err != nil {
					t.Fatal(err)
				}
				rep, err := eval.Compare(circ)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			for round := 0; round < 8; round++ {
				bi := rng.Intn(len(blocks))
				b := &blocks[bi]
				n := 1 + rng.Intn(10)
				impls := make([]*logic.Circuit, n)
				for i := range impls {
					impls[i] = randImpl(rng, len(b.Inputs), len(b.Outputs))
				}
				ic.SetLanes(1 + rng.Intn(10))
				batch := make([]qor.Report, n)
				if err := ic.CompareCandidates(bi, impls, batch); err != nil {
					t.Fatal(err)
				}
				for i, impl := range impls {
					scalar, err := ic.CompareCandidate(bi, impl)
					if err != nil {
						t.Fatal(err)
					}
					if batch[i] != scalar {
						t.Fatalf("seed %d round %d block %d lane %d: batch %+v != scalar %+v",
							seed, round, bi, i, batch[i], scalar)
					}
					// The rebuild path is the expensive oracle: check a
					// couple of lanes per round rather than all of them.
					if i < 2 {
						if want := literal(bi, impl); batch[i] != want {
							t.Fatalf("seed %d round %d block %d lane %d: batch %+v != paper-literal %+v",
								seed, round, bi, i, batch[i], want)
						}
					}
				}
				if rng.Intn(2) == 0 {
					pick := impls[rng.Intn(n)]
					if _, err := ic.Commit(bi, pick); err != nil {
						t.Fatal(err)
					}
					committed[bi] = pick
				}
			}
		})
	}
}
