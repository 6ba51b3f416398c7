package qor_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/qor"
)

// An independent oracle for the metric decode. oracleReport scores output
// words the naive way: at every valid sample it gathers the candidate's and
// the reference's group integers bit by bit and compares them, with no diff
// flips and no reference cache. Every evaluation path must report exactly
// what it reports, bit for bit: Evaluator.Compare, SequentialEvaluator.Compare,
// CompareCandidate, CompareCandidates at every lane width, and
// CommittedReport after Commit. The CI kernel job runs it under -race.

// oracleReport scores the candidate output words cand against ref, one slice
// of per-output words per 64-sample batch; sample s of batch b is valid when
// 64*b+s < samples.
//
// The float sums follow the report's documented association: per batch, each
// group's errors are summed with samples ascending; batch partials are then
// added into running totals in batch order. A matching sample adds exactly
// zero, so summing over every valid sample equals summing over the
// mismatching ones.
func oracleReport(spec qor.OutputSpec, cand, ref [][]uint64, samples int, exact bool) qor.Report {
	nGroups := len(spec.Groups)
	sumRel := make([]float64, nGroups)
	sumAbs := make([]float64, nGroups)
	sumSq := make([]float64, nGroups)
	var hamming, errSamples int
	var worstRel, worstAbs float64
	for b := range cand {
		bRel := make([]float64, nGroups)
		bAbs := make([]float64, nGroups)
		bSq := make([]float64, nGroups)
		for s := 0; s < 64 && 64*b+s < samples; s++ {
			differs := false
			for o := range cand[b] {
				if bitAt(cand[b][o], s) != bitAt(ref[b][o], s) {
					hamming++
					differs = true
				}
			}
			if differs {
				errSamples++
			}
			for gi, g := range spec.Groups {
				av := oracleValue(g, oracleGather(cand[b], g, s))
				rv := oracleValue(g, oracleGather(ref[b], g, s))
				abs := math.Abs(av - rv)
				rel := abs / math.Max(math.Abs(rv), 1)
				bAbs[gi] += abs
				bSq[gi] += abs * abs
				bRel[gi] += rel
				worstRel = math.Max(worstRel, rel)
				worstAbs = math.Max(worstAbs, abs)
			}
		}
		for gi := range spec.Groups {
			sumRel[gi] += bRel[gi]
			sumAbs[gi] += bAbs[gi]
			sumSq[gi] += bSq[gi]
		}
	}
	rep := qor.Report{Samples: samples, Exact: exact, WorstRel: worstRel, WorstAbs: worstAbs}
	n := float64(samples)
	for gi, g := range spec.Groups {
		rep.AvgRel += sumRel[gi] / n
		rep.AvgAbs += sumAbs[gi] / n
		rep.NormAvgAbs += sumAbs[gi] / n / g.MaxValue()
		rep.MeanSquared += sumSq[gi] / n
	}
	if nGroups > 0 {
		rep.AvgRel /= float64(nGroups)
		rep.AvgAbs /= float64(nGroups)
		rep.NormAvgAbs /= float64(nGroups)
		rep.MeanSquared /= float64(nGroups)
	}
	rep.MeanHam = float64(hamming) / n
	rep.ErrRate = float64(errSamples) / n
	return rep
}

func bitAt(w uint64, s int) uint64 { return w >> uint(s) & 1 }

// oracleGather reads group g's integer at sample s, one output bit at a time.
func oracleGather(words []uint64, g qor.Group, s int) uint64 {
	var v uint64
	for j, o := range g.Bits {
		v |= bitAt(words[o], s) << uint(j)
	}
	return v
}

// oracleValue is the group's numeric value: signed groups sign-extend from
// their top bit.
func oracleValue(g qor.Group, v uint64) float64 {
	if g.Signed {
		shift := uint(64 - len(g.Bits))
		return float64(int64(v<<shift) >> shift)
	}
	return float64(v)
}

// simulateBatches runs c over the given per-batch input words.
func simulateBatches(c *logic.Circuit, inputs [][]uint64) [][]uint64 {
	sim := logic.NewSimulator(c)
	out := make([][]uint64, len(inputs))
	for b, in := range inputs {
		out[b] = make([]uint64, len(c.Outputs))
		sim.Run(in, out[b])
	}
	return out
}

// simulateChains runs c through accumulation chains as
// NewSequentialEvaluator defines them: chains of seq.Steps cycles, feedback
// state zeroed at the start of each chain, and fresh inputs drawn from one
// seeded stream, in (chain, step, input) order, for non-feedback inputs only.
// It returns the output words of every (chain, step) in that order.
func simulateChains(c *logic.Circuit, seq qor.Sequence, samples int, seed int64) [][]uint64 {
	chains := (samples + 64*seq.Steps - 1) / (64 * seq.Steps)
	isFeedback := make([]bool, len(c.Inputs))
	for _, fb := range seq.Feedback {
		isFeedback[fb[1]] = true
	}
	rng := rand.New(rand.NewSource(seed))
	sim := logic.NewSimulator(c)
	state := make([]uint64, len(c.Inputs))
	var words [][]uint64
	for b := 0; b < chains; b++ {
		clear(state)
		for t := 0; t < seq.Steps; t++ {
			in := make([]uint64, len(c.Inputs))
			for i := range in {
				if isFeedback[i] {
					in[i] = state[i]
				} else {
					in[i] = rng.Uint64()
				}
			}
			out := make([]uint64, len(c.Outputs))
			sim.Run(in, out)
			for _, fb := range seq.Feedback {
				state[fb[1]] = out[fb[0]]
			}
			words = append(words, out)
		}
	}
	return words
}

// groupedSpec splits outputs [0, sum(widths)) into consecutive groups of the
// given widths and signedness; any further outputs join no group.
func groupedSpec(widths []int, signed []bool) qor.OutputSpec {
	var spec qor.OutputSpec
	next := 0
	for i, w := range widths {
		bits := make([]int, w)
		for j := range bits {
			bits[j] = next
			next++
		}
		spec.Groups = append(spec.Groups, qor.Group{Name: fmt.Sprintf("g%d", i), Bits: bits, Signed: signed[i]})
	}
	return spec
}

// oracleCircuit draws a seeded random circuit and decomposes it into blocks.
func oracleCircuit(t *testing.T, rng *rand.Rand, inputs, outputs int) (*logic.Circuit, []partition.Block) {
	t.Helper()
	bc := bench.RandomCircuit(rng, bench.RandomOptions{Inputs: inputs, Gates: 60 + outputs, Outputs: outputs})
	prepared := logic.ReorderDFS(logic.Sweep(bc.Circ))
	blocks, err := partition.Decompose(prepared, partition.Options{MaxInputs: 5, MaxOutputs: 3})
	if err != nil || len(blocks) == 0 {
		t.Fatalf("decompose: %v (%d blocks)", err, len(blocks))
	}
	return prepared, blocks
}

// substitute rebuilds prepared with the committed implementations plus impl
// in block bi.
func substitute(t *testing.T, prepared *logic.Circuit, blocks []partition.Block, committed map[int]*logic.Circuit, bi int, impl *logic.Circuit) *logic.Circuit {
	t.Helper()
	merged := map[int]*logic.Circuit{}
	for cb, ci := range committed {
		merged[cb] = ci
	}
	if impl != nil {
		merged[bi] = impl
	}
	c, err := logic.ReplaceBlocks(prepared, partition.Substitutions(blocks, merged))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sameReport(t *testing.T, what string, got, want qor.Report) {
	t.Helper()
	if got != want {
		t.Fatalf("%s diverged from the oracle:\n got %+v\nwant %+v", what, got, want)
	}
}

// exhaustive reports whether an evaluator over the given input count and
// requested samples enumerates every input pattern.
func exhaustive(inputs, samples int) bool {
	return inputs <= qor.ExhaustiveLimit && 1<<inputs <= samples
}

// TestLaneDecodeEdgeCases pins the decode corners random circuits rarely
// land on, on every combinational path including each lane of
// CompareCandidates.
func TestLaneDecodeEdgeCases(t *testing.T) {
	cases := []struct {
		name            string
		inputs, outputs int
		widths          []int
		signed          []bool
		samples         int
		// candidates per round; zero draws 1..MaxLanes+4.
		candidates int
	}{
		// Two's-complement groups: the sign flips often on narrow groups.
		{"signed-groups", 12, 12, []int{5, 7}, []bool{true, true}, 512, 0},
		// Every group one bit wide, alternating signedness: a signed 1-bit
		// group takes the values 0 and -1. 2^8 = 256 samples: exhaustive.
		{"single-bit-groups", 8, 9, []int{1, 1, 1, 1, 1, 1, 1, 1, 1},
			[]bool{false, true, false, true, false, true, false, true, false}, 256, 0},
		// The widest legal group, unsigned, beside a narrow signed one.
		{"wide-groups", 12, 70, []int{63, 7}, []bool{false, true}, 256, 0},
		// The widest legal group, signed, exhaustive over 2^7 samples.
		{"wide-signed-group", 7, 63, []int{63}, []bool{true}, 128, 0},
		// 2^5 = 32 exhaustive samples: one batch whose valid-sample mask
		// covers only the low half of each word. Output 8 joins no group.
		{"partial-final-mask", 5, 9, []int{3, 5}, []bool{false, true}, 64, 0},
		// Monte-Carlo sampling, 1000 requested samples rounded up to 1024.
		{"monte-carlo", 14, 10, []int{10}, []bool{false}, 1000, 0},
		// 2*MaxLanes+3 candidates: at MaxLanes lanes the last chunk is a
		// 3-wide tail.
		{"maxlanes-tail", 7, 10, []int{10}, []bool{false}, 128, 2*qor.MaxLanes + 3},
		// 1, 7, 8, 9 and 17 Monte-Carlo batches: the incremental runner
		// evaluates groups of eight consecutive batches, so these are a lone
		// partial group, one group one batch short, one full group, a full
		// group plus a one-batch tail, and two full groups plus a tail.
		{"group-1-batch", 14, 10, []int{6, 4}, []bool{false, true}, 64, 0},
		{"group-7-batches", 14, 10, []int{6, 4}, []bool{false, true}, 448, 0},
		{"group-8-batches", 14, 10, []int{6, 4}, []bool{false, true}, 512, 0},
		{"group-9-batches", 14, 10, []int{6, 4}, []bool{false, true}, 576, 0},
		{"group-17-batches", 14, 10, []int{6, 4}, []bool{false, true}, 1088, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 2; seed++ {
				rng := rand.New(rand.NewSource(seed * 7919))
				prepared, blocks := oracleCircuit(t, rng, tc.inputs, tc.outputs)
				spec := groupedSpec(tc.widths, tc.signed)
				checkCombinational(t, rng, prepared, blocks, spec, tc.samples, seed, exhaustive(tc.inputs, tc.samples), tc.candidates)
			}
		})
	}
}

// fuzzSampleCounts are the sample counts the fuzz tests draw from: powers of
// two, plus 7, 9 and 17 batches, which end the incremental runner's groups
// of eight batches short of a full group.
var fuzzSampleCounts = []int{64, 128, 256, 512, 1024, 448, 576, 1088}

// TestLaneDecodeFuzzDifferential differences every combinational path
// against the oracle on seeded random circuits, each with a random split of
// its outputs into groups of random width and signedness and a random sample
// count, exhaustive or Monte-Carlo.
func TestLaneDecodeFuzzDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed * 40503))
			inputs := 5 + rng.Intn(8)
			outputs := 2 + rng.Intn(40)
			prepared, blocks := oracleCircuit(t, rng, inputs, outputs)
			var widths []int
			var signed []bool
			for left := outputs - rng.Intn(2); left > 0; {
				w := 1 + rng.Intn(min(left, 63))
				widths = append(widths, w)
				signed = append(signed, rng.Intn(2) == 0)
				left -= w
			}
			samples := fuzzSampleCounts[rng.Intn(len(fuzzSampleCounts))]
			checkCombinational(t, rng, prepared, blocks, groupedSpec(widths, signed), samples, seed, exhaustive(inputs, samples), 0)
		})
	}
}

// TestSequentialDecodeOracle checks SequentialEvaluator.Compare against the
// oracle, with the test driving the accumulator feedback itself.
func TestSequentialDecodeOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed * 104729))
		prepared, blocks := oracleCircuit(t, rng, 7, 9)
		// Outputs 0..2 feed back into inputs 1..3, like an accumulator.
		seq := qor.Sequence{Steps: 4, Feedback: [][2]int{{0, 1}, {1, 2}, {2, 3}}}
		spec := groupedSpec([]int{6, 3}, []bool{seed%2 == 0, true})
		samples := 64 * seq.Steps * 3
		se, err := qor.NewSequentialEvaluator(prepared, spec, seq, samples, seed)
		if err != nil {
			t.Fatal(err)
		}
		ref := simulateChains(prepared, seq, samples, seed)
		for round := 0; round < 6; round++ {
			bi := rng.Intn(len(blocks))
			impl := randImpl(rng, len(blocks[bi].Inputs), len(blocks[bi].Outputs))
			approx := substitute(t, prepared, blocks, nil, bi, impl)
			got, err := se.Compare(approx)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleReport(spec, simulateChains(approx, seq, samples, seed), ref, se.Samples(), false)
			sameReport(t, fmt.Sprintf("seed %d round %d: SequentialEvaluator.Compare", seed, round), got, want)
		}
	}
}

// checkCombinational walks a few rounds of same-block candidates and
// commits, checking every combinational evaluation path against the oracle.
// Each round draws candidates random implementations, or 1..MaxLanes+4 of
// them when candidates is zero.
func checkCombinational(t *testing.T, rng *rand.Rand, prepared *logic.Circuit, blocks []partition.Block, spec qor.OutputSpec, samples int, seed int64, exact bool, candidates int) {
	t.Helper()
	eval, err := qor.NewEvaluator(prepared, spec, samples, seed)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := qor.NewIncrementalComparer(prepared, spec, blocks, samples, seed)
	if err != nil {
		t.Fatal(err)
	}
	n := eval.Samples()
	inputs := make([][]uint64, (n+63)/64)
	for b := range inputs {
		inputs[b] = eval.InputWords(b)
	}
	ref := simulateBatches(prepared, inputs)
	oracle := func(c *logic.Circuit) qor.Report {
		return oracleReport(spec, simulateBatches(c, inputs), ref, n, exact)
	}
	sameReport(t, "CommittedReport of the accurate circuit", ic.CommittedReport(), oracle(prepared))

	committed := map[int]*logic.Circuit{}
	for round := 0; round < 3; round++ {
		bi := rng.Intn(len(blocks))
		count := candidates
		if count == 0 {
			count = 1 + rng.Intn(qor.MaxLanes+4)
		}
		impls := make([]*logic.Circuit, count)
		want := make([]qor.Report, len(impls))
		for i := range impls {
			impls[i] = randImpl(rng, len(blocks[bi].Inputs), len(blocks[bi].Outputs))
			circ := substitute(t, prepared, blocks, committed, bi, impls[i])
			want[i] = oracle(circ)
			got, err := eval.Compare(circ)
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, fmt.Sprintf("seed %d round %d candidate %d: Evaluator.Compare", seed, round, i), got, want[i])
			got, err = ic.CompareCandidate(bi, impls[i])
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, fmt.Sprintf("seed %d round %d candidate %d: CompareCandidate", seed, round, i), got, want[i])
		}
		got := make([]qor.Report, len(impls))
		for lanes := 1; lanes <= qor.MaxLanes; lanes++ {
			ic.SetLanes(lanes)
			if err := ic.CompareCandidates(bi, impls, got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				sameReport(t, fmt.Sprintf("seed %d round %d candidate %d: CompareCandidates at %d lanes", seed, round, i, lanes), got[i], want[i])
			}
		}
		pick := rng.Intn(len(impls))
		rep, err := ic.Commit(bi, impls[pick])
		if err != nil {
			t.Fatal(err)
		}
		committed[bi] = impls[pick]
		sameReport(t, fmt.Sprintf("seed %d round %d: Commit", seed, round), rep, want[pick])
		sameReport(t, fmt.Sprintf("seed %d round %d: CommittedReport", seed, round), ic.CommittedReport(), oracle(substitute(t, prepared, blocks, committed, bi, nil)))
	}
}
