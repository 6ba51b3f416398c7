package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/qor"
)

// trajectoryHash digests a run's committed walk: per step the block, the new
// degree, the model area and every report field, floats by their bits. Two
// runs agree on it exactly when they made the same decisions and measured
// the same numbers.
func trajectoryHash(res *core.Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(x float64) { put(math.Float64bits(x)) }
	put(uint64(len(res.Steps)))
	for _, s := range res.Steps {
		put(uint64(s.BlockIndex))
		put(uint64(s.NewDegree))
		f(s.ModelArea)
		r := s.Report
		put(uint64(r.Samples))
		if r.Exact {
			put(1)
		} else {
			put(0)
		}
		for _, x := range []float64{r.AvgRel, r.AvgAbs, r.NormAvgAbs, r.MeanHam, r.ErrRate, r.WorstRel, r.WorstAbs, r.MeanSquared} {
			f(x)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// areaRatio is the best step's model area over the accurate model area (1
// when no step fits the threshold).
func areaRatio(res *core.Result) float64 {
	if res.BestStep < 0 || res.AccurateModelArea == 0 {
		return 1
	}
	return res.Steps[res.BestStep].ModelArea / res.AccurateModelArea
}

// relTotals accumulates the average relative error of 64-lane output
// batches the way a qor report does: one sum per batch and output group,
// added to the group's total, then each total over the sample count and the
// mean over groups. Every sample is decoded here, one lane at a time.
type relTotals struct {
	spec   qor.OutputSpec
	totals []float64
}

func newRelTotals(spec qor.OutputSpec) *relTotals {
	return &relTotals{spec: spec, totals: make([]float64, len(spec.Groups))}
}

// add folds the first valid lanes of one batch of reference and
// approximate output words.
func (t *relTotals) add(refOut, apxOut []uint64, valid int) {
	for gi, g := range t.spec.Groups {
		var batchSum float64
		for lane := 0; lane < valid; lane++ {
			r, a := laneValue(refOut, g, lane), laneValue(apxOut, g, lane)
			if a != r {
				batchSum += math.Abs(a-r) / math.Max(math.Abs(r), 1)
			}
		}
		t.totals[gi] += batchSum
	}
}

func (t *relTotals) avg(samples int) float64 {
	var avg float64
	for _, x := range t.totals {
		avg += x / float64(samples)
	}
	if len(t.totals) > 0 {
		avg /= float64(len(t.totals))
	}
	return avg
}

// independentAvgRel recomputes a combinational step's average relative
// error without the qor kernel: both circuits are simulated with
// logic.Simulator on the evaluator's own sample words and decoded by
// relTotals, so the result must equal Report.AvgRel bit for bit.
func independentAvgRel(ref, approx *logic.Circuit, spec qor.OutputSpec, samples int, seed int64) (float64, error) {
	ev, err := qor.NewEvaluator(ref, spec, samples, seed)
	if err != nil {
		return 0, err
	}
	n := ev.Samples()
	nb := (n + 63) / 64
	refSim, apxSim := logic.NewSimulator(ref), logic.NewSimulator(approx)
	refOut := make([]uint64, len(ref.Outputs))
	apxOut := make([]uint64, len(approx.Outputs))
	acc := newRelTotals(spec)
	for b := 0; b < nb; b++ {
		in := ev.InputWords(b)
		refSim.Run(in, refOut)
		apxSim.Run(in, apxOut)
		valid := 64
		if b == nb-1 && n%64 != 0 {
			valid = n % 64
		}
		acc.add(refOut, apxOut, valid)
	}
	return acc.avg(n), nil
}

// independentSeqAvgRel is independentAvgRel for a run with accumulator
// feedback, without the qor kernel. It rebuilds the sequential evaluator's
// documented inputs: ceil(samples / (64 x cycles)) batches of 64 chains,
// each chain starting from zero state, and per cycle a fresh random word for
// every input that is not fed back, drawn in (batch, cycle, input) order
// from the seed. Reference and approximate circuits each carry their own
// feedback state; every (batch, cycle) is one 64-lane batch of the report.
func independentSeqAvgRel(ref, approx *logic.Circuit, spec qor.OutputSpec, seq qor.Sequence, samples int, seed int64) (float64, error) {
	if err := seq.Validate(ref); err != nil {
		return 0, err
	}
	chains := max(1, (samples+64*seq.Steps-1)/(64*seq.Steps))
	fedBack := make([]bool, len(ref.Inputs))
	for _, fb := range seq.Feedback {
		fedBack[fb[1]] = true
	}
	rng := rand.New(rand.NewSource(seed))
	refSim, apxSim := logic.NewSimulator(ref), logic.NewSimulator(approx)
	refIn, apxIn := make([]uint64, len(ref.Inputs)), make([]uint64, len(approx.Inputs))
	refOut := make([]uint64, len(ref.Outputs))
	apxOut := make([]uint64, len(approx.Outputs))
	acc := newRelTotals(spec)
	for b := 0; b < chains; b++ {
		clear(refIn)
		clear(apxIn)
		for t := 0; t < seq.Steps; t++ {
			for i, fb := range fedBack {
				if !fb {
					refIn[i] = rng.Uint64()
					apxIn[i] = refIn[i]
				}
			}
			refSim.Run(refIn, refOut)
			apxSim.Run(apxIn, apxOut)
			for _, fb := range seq.Feedback {
				refIn[fb[1]], apxIn[fb[1]] = refOut[fb[0]], apxOut[fb[0]]
			}
			acc.add(refOut, apxOut, 64)
		}
	}
	return acc.avg(chains * 64 * seq.Steps), nil
}

// laneValue decodes one sample's group value straight from the output bits.
func laneValue(out []uint64, g qor.Group, lane int) float64 {
	var v int64
	for j, bit := range g.Bits {
		v |= int64(out[bit]>>uint(lane)&1) << uint(j)
	}
	if g.Signed && v&(1<<uint(len(g.Bits)-1)) != 0 {
		v -= 1 << uint(len(g.Bits))
	}
	return float64(v)
}

// checkSteps verifies the best and the last committed step of a run
// against the independent decode (the sequential one for runs with
// accumulator feedback).
func checkSteps(res *core.Result) error {
	if len(res.Steps) == 0 {
		return nil
	}
	for _, step := range []int{res.BestStep, len(res.Steps) - 1} {
		if step < 0 {
			continue
		}
		circ, err := res.CircuitAt(step)
		if err != nil {
			return fmt.Errorf("rebuild step %d: %w", step, err)
		}
		cfg := res.Config
		var got float64
		if cfg.Sequence != nil {
			got, err = independentSeqAvgRel(res.Circuit, circ, res.Spec, *cfg.Sequence, cfg.Samples, cfg.Seed)
		} else {
			got, err = independentAvgRel(res.Circuit, circ, res.Spec, cfg.Samples, cfg.Seed)
		}
		if err != nil {
			return err
		}
		if want := res.Steps[step].Report.AvgRel; got != want {
			return fmt.Errorf("step %d: independent avg-rel %v, explorer reported %v", step, got, want)
		}
	}
	return nil
}

// checkFinal sanity-checks a FinalMetrics report: it covers the requested
// samples (or the exhaustive input space) and every error is a finite,
// non-negative number.
func checkFinal(rep qor.Report, samples int) error {
	if rep.Samples < 64 || (rep.Samples < samples && !rep.Exact) {
		return fmt.Errorf("final report covers %d samples, want %d", rep.Samples, samples)
	}
	for _, x := range []float64{rep.AvgRel, rep.AvgAbs, rep.MeanHam, rep.ErrRate, rep.WorstRel} {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("final report has invalid error %v", x)
		}
	}
	return nil
}

// corrupt perturbs a result the way a wrong kernel would: the best (or
// last) step's reported error drifts by one ulp. Used only by tests.
func corrupt(res *core.Result) {
	step := res.BestStep
	if step < 0 {
		step = len(res.Steps) - 1
	}
	if step >= 0 {
		r := &res.Steps[step].Report
		r.AvgRel = math.Nextafter(r.AvgRel, math.Inf(1))
	}
}
