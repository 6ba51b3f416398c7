package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/synth"
	"github.com/blasys-go/blasys/internal/techmap"
	"github.com/blasys-go/blasys/internal/telemetry"
)

// snapshot is a copy of the process-wide telemetry registry; the traced run
// reads the program's existing instruments as differences of two snapshots.
type snapshot map[string]any

func takeSnapshot() snapshot { return telemetry.Default().Snapshot() }

// seriesOf returns the snapshot keys of one metric family: the bare name
// and every labelled child whose labels contain all of the given pairs
// (each written as key="value").
func (s snapshot) seriesOf(name string, labels ...string) []string {
	var keys []string
	for k := range s {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(k, l)
		}
		if ok {
			keys = append(keys, k)
		}
	}
	return keys
}

// counter sums a counter family (filtered by labels) in the snapshot.
func (s snapshot) counter(name string, labels ...string) float64 {
	var v float64
	for _, k := range s.seriesOf(name, labels...) {
		if x, ok := s[k].(float64); ok {
			v += x
		}
	}
	return v
}

// hist sums a histogram family's observation count and value sum.
func (s snapshot) hist(name string, labels ...string) (count, total float64) {
	for _, k := range s.seriesOf(name, labels...) {
		m, ok := s[k].(map[string]any)
		if !ok {
			continue
		}
		if c, ok := m["count"].(uint64); ok {
			count += float64(c)
		}
		if x, ok := m["sum"].(float64); ok {
			total += x
		}
	}
	return count, total
}

// delta is the change of the instruments over one or more intervals, each
// bracketed by a pair of snapshots.
type delta []struct{ before, after snapshot }

// bracket runs f between two snapshots and adds the interval to d.
func (d *delta) bracket(f func()) {
	before := takeSnapshot()
	f()
	*d = append(*d, struct{ before, after snapshot }{before, takeSnapshot()})
}

func (d delta) counter(name string, labels ...string) float64 {
	var v float64
	for _, iv := range d {
		v += iv.after.counter(name, labels...) - iv.before.counter(name, labels...)
	}
	return v
}

func (d delta) hist(name string, labels ...string) (count, total float64) {
	for _, iv := range d {
		c1, s1 := iv.after.hist(name, labels...)
		c0, s0 := iv.before.hist(name, labels...)
		count, total = count+c1-c0, total+s1-s0
	}
	return count, total
}

// layerCounters fills the layer metrics that come from the program's own
// instruments (bmf, qor, core, store), divided by ops to give per-operation
// values. cacheTier names the outermost factorization cache tier in use and
// sweepWorkers the candidate-sweep pool size of one operation.
func layerCounters(d delta, ops int, cacheTier string, sweepWorkers int, m map[string]float64) {
	n := float64(ops)
	fc, fs := d.hist("blasys_bmf_factorize_seconds")
	m["bmf.factorize_s"] = fs / n
	m["bmf.factorize_calls"] = fc / n
	hits := d.counter("blasys_bmf_cache_requests_total", `tier="`+cacheTier+`"`, `result="hit"`)
	all := d.counter("blasys_bmf_cache_requests_total", `tier="`+cacheTier+`"`)
	m["bmf.cache_hit_ratio"] = ratio(hits, all)

	evals, evalSecs := d.hist("blasys_core_candidate_eval_seconds")
	m["qor.candidate_evals"] = evals / n
	m["qor.compile_s"] = d.counter("blasys_qor_eval_compile_seconds_total") / n
	m["qor.simulate_s"] = d.counter("blasys_qor_eval_sim_seconds_total") / n
	m["qor.decode_s"] = d.counter("blasys_qor_eval_decode_seconds_total") / n
	cone := d.counter("blasys_qor_eval_batches_total", `kind="cone"`)
	clean := d.counter("blasys_qor_eval_batches_total", `kind="clean"`)
	m["qor.cone_batches"] = cone / n
	m["qor.clean_batch_ratio"] = ratio(clean, clean+cone)

	_, sweep := d.hist("blasys_core_sweep_seconds")
	m["core.sweep_s"] = sweep / n
	m["core.sweep_efficiency"] = ratio(evalSecs, float64(sweepWorkers)*sweep)
	m["core.frontier_points"] = d.counter("blasys_core_frontier_points_total") / n

	cw, cs := d.hist("blasys_store_checkpoint_write_seconds")
	ja, js := d.hist("blasys_store_journal_append_seconds")
	_, fsync := d.hist("blasys_store_fsync_seconds")
	m["store.checkpoint_writes"] = cw / n
	m["store.checkpoint_s"] = cs / n
	m["store.journal_appends"] = ja / n
	m["store.journal_s"] = js / n
	m["store.fsync_s"] = fsync / n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// profileRedrive times the layers of Alg. 1's profiling phase call by call
// over a finished run's blocks: block extraction and truth tables
// (partition), synthesis of every variant (synth) and mapping of every
// accurate block and variant (techmap). Factorizations come from cache, the
// run's own when it is still at hand, so bmf is not re-timed here (its
// instruments already measured it). Every re-mapped area must equal the
// run's profile.
type profileRedrive struct {
	extract, synth, techmap time.Duration
	synthCalls, mapCalls    int
}

func redriveProfile(res *core.Result, cache bmf.Cache) (profileRedrive, error) {
	var r profileRedrive
	cfg := res.Config
	opts := bmf.Options{Semiring: cfg.Semiring, TauSweep: cfg.TauSweep}
	if cfg.Weighted {
		return r, fmt.Errorf("profile re-drive does not model weighted factorization")
	}
	for bi, p := range res.Profiles {
		b := p.Block
		t := time.Now()
		impl, err := partition.Extract(res.Circuit, b)
		r.extract += time.Since(t)
		if err != nil {
			return r, err
		}
		t = time.Now()
		mapped, err := techmap.Map(impl, cfg.Lib)
		r.techmap += time.Since(t)
		r.mapCalls++
		if err != nil {
			return r, err
		}
		if mapped.Area() != p.AccurateArea {
			return r, fmt.Errorf("block %d: re-mapped accurate area %v, profile has %v", bi, mapped.Area(), p.AccurateArea)
		}
		mi, ki := len(b.Outputs), len(b.Inputs)
		if mi < 2 || ki == 0 || ki > 16 {
			if len(p.Variants) != 0 {
				return r, fmt.Errorf("block %d: %d variants for an unfactorizable block", bi, len(p.Variants))
			}
			continue
		}
		t = time.Now()
		M, err := partition.TruthMatrix(res.Circuit, b)
		r.extract += time.Since(t)
		if err != nil {
			return r, err
		}
		maxF := min(mi-1, bmf.MaxDegree)
		if len(p.Variants) != maxF {
			return r, fmt.Errorf("block %d: %d variants, want %d", bi, len(p.Variants), maxF)
		}
		for f := 1; f <= maxF; f++ {
			name := fmt.Sprintf("%s_b%d_f%d", res.Circuit.Name, len(b.Gates), f)
			var v *logic.Circuit
			if cfg.Basis == core.BasisASSO {
				fr, err := bmf.FactorizeCached(cache, M, f, opts)
				if err != nil {
					return r, err
				}
				t = time.Now()
				v, err = synth.ApproxBlock(name, fr, cfg.Semiring, synth.Options{Exact: cfg.SynthExact})
				r.synth += time.Since(t)
				if err != nil {
					return r, err
				}
			} else {
				fr, err := bmf.FactorizeColumnsCached(cache, M, f, opts)
				if err != nil {
					return r, err
				}
				t = time.Now()
				v, err = synth.ApproxBlockStructural(name, impl, fr, cfg.Semiring)
				r.synth += time.Since(t)
				if err != nil {
					return r, err
				}
			}
			r.synthCalls++
			t = time.Now()
			vm, err := techmap.Map(v, cfg.Lib)
			r.techmap += time.Since(t)
			r.mapCalls++
			if err != nil {
				return r, err
			}
			if want := p.Variants[f-1].MappedArea; vm.Area() != want {
				return r, fmt.Errorf("block %d degree %d: re-driven area %v, profile has %v", bi, f, vm.Area(), want)
			}
		}
	}
	return r, nil
}

// exploreRedrive times the serial pieces of exploration around the sweep:
// the comparer's baseline build and the commit chain replayed over the run's
// steps. The replayed chain must end on the last step's report.
type exploreRedrive struct {
	decompose, baseline, commit time.Duration
	blocks                      int
}

func redriveExplore(res *core.Result) (exploreRedrive, error) {
	var r exploreRedrive
	cfg := res.Config
	t := time.Now()
	blocks, err := partition.Decompose(res.Circuit, partition.Options{MaxInputs: cfg.K, MaxOutputs: cfg.M})
	r.decompose = time.Since(t)
	if err != nil {
		return r, err
	}
	r.blocks = len(blocks)
	if len(blocks) != len(res.Profiles) {
		return r, fmt.Errorf("re-decomposed %d blocks, run profiled %d", len(blocks), len(res.Profiles))
	}
	if cfg.Sequence != nil {
		return r, nil // sequential runs have no incremental comparer
	}
	t = time.Now()
	ic, err := qor.NewIncrementalComparer(res.Circuit, res.Spec, blocks, cfg.Samples, cfg.Seed)
	r.baseline = time.Since(t)
	if err != nil {
		return r, err
	}
	var last qor.Report
	for _, s := range res.Steps {
		impl := res.Profiles[s.BlockIndex].Variants[s.NewDegree-1].Impl
		t = time.Now()
		last, err = ic.Commit(s.BlockIndex, impl)
		r.commit += time.Since(t)
		if err != nil {
			return r, err
		}
	}
	if n := len(res.Steps); n > 0 && last != res.Steps[n-1].Report {
		return r, fmt.Errorf("replayed commit chain ends on %+v, last step reported %+v", last, res.Steps[n-1].Report)
	}
	return r, nil
}

// redriveFinal times the two halves of Result.FinalMetrics separately: the
// rebuild plus technology map, and the fresh Monte-Carlo comparison. The
// comparison must reproduce the report FinalMetrics returned.
func redriveFinal(res *core.Result, samples int, want qor.Report) (mapS, compareS time.Duration, err error) {
	cfg := res.Config
	t := time.Now()
	circ, err := res.CircuitAt(res.BestStep)
	if err == nil {
		_, err = techmap.Map(circ, cfg.Lib)
	}
	mapS = time.Since(t)
	if err != nil {
		return mapS, 0, err
	}
	t = time.Now()
	cmp, err := qor.NewComparer(res.Circuit, res.Spec, cfg.Sequence, samples, cfg.Seed+1)
	var rep qor.Report
	if err == nil {
		rep, err = cmp.Compare(circ)
	}
	compareS = time.Since(t)
	if err == nil && rep != want {
		err = fmt.Errorf("re-driven final comparison %+v differs from FinalMetrics %+v", rep, want)
	}
	return mapS, compareS, err
}

// part is one named self-time in an attribution.
type part struct {
	name string
	d    time.Duration
}

// attribution prints where one operation's wall time went and returns the
// attributed share and the rest. Parts must be self-times that do not
// overlap.
func attribution(w io.Writer, label string, total time.Duration, parts []part) (frac float64, unattributed time.Duration) {
	var covered time.Duration
	fmt.Fprintf(w, "# attribution of %s %.3fs\n", label, total.Seconds())
	for _, p := range parts {
		covered += p.d
		fmt.Fprintf(w, "#   %-28s %9.4fs %6.1f%%\n", p.name, p.d.Seconds(), 100*ratio(p.d.Seconds(), total.Seconds()))
	}
	unattributed = total - covered
	fmt.Fprintf(w, "#   %-28s %9.4fs %6.1f%%\n", "unattributed", unattributed.Seconds(), 100*ratio(unattributed.Seconds(), total.Seconds()))
	return ratio(covered.Seconds(), total.Seconds()), unattributed
}

// spanTotals sums completed span durations by name.
func spanTotals(recs []telemetry.SpanRecord) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, r := range recs {
		out[r.Name] += r.Duration()
	}
	return out
}
