package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/telemetry"
)

// iteration is one closed-loop operation of an explore workload: a full
// core.ApproximateCtx on a cold factorization cache, then FinalMetrics for
// the best step.
type iteration struct {
	res      *core.Result
	cache    bmf.Cache
	err      error
	traced   bool
	spans    []telemetry.SpanRecord
	finalRep qor.Report

	approx, latency time.Duration
	// steps holds the latency of every committed step after the first, from
	// consecutive Progress timestamps, and evals the candidates those steps
	// evaluated. The first step is left out because its interval has no
	// start stamp.
	steps []time.Duration
	evals int
	// hash and area stand in for res once an iteration is released.
	hash string
	area float64
}

// release keeps what the checks and metrics need of a later iteration (its
// trajectory hash and area) and drops the result, so the heap does not grow
// with the iteration count.
func (it *iteration) release() {
	it.hash, it.area = trajectoryHash(it.res), areaRatio(it.res)
	it.res, it.cache = nil, nil
}

func exploreOnce(ctx context.Context, bm bench.Circuit, o options, traced bool) *iteration {
	it := &iteration{traced: traced, cache: bmf.NewMemoryCache()}
	var stamps []time.Time
	cfg := core.Config{
		Seed:     o.seed,
		Samples:  o.samples,
		MaxSteps: o.maxSteps,
		Workers:  workers,
		Basis:    o.basis,
		Sequence: bm.Seq,
		Cache:    it.cache,
		Progress: func(core.TracePoint) { stamps = append(stamps, time.Now()) },
	}
	var tl *telemetry.Timeline
	if traced {
		tl = telemetry.NewTimeline(0)
		cfg.Span = tl.Start("approximate")
	}
	start := time.Now()
	res, err := core.ApproximateCtx(ctx, bm.Circ, bm.Spec, cfg)
	it.approx = time.Since(start)
	if traced {
		cfg.Span.End()
		it.spans = tl.Records()
	}
	if err != nil {
		it.err = fmt.Errorf("approximate: %w", err)
		return it
	}
	_, it.finalRep, err = res.FinalMetrics(res.BestStep, o.finalSamples)
	it.latency = time.Since(start)
	if err != nil {
		it.err = fmt.Errorf("final metrics: %w", err)
		return it
	}
	it.res = res
	for i := 1; i < len(stamps); i++ {
		it.steps = append(it.steps, stamps[i].Sub(stamps[i-1]))
	}
	for _, p := range res.Frontier.Points() {
		if p.Step >= 1 && p.Step < len(stamps) {
			it.evals++
		}
	}
	return it
}

// exploreSetup builds and validates the circuit of an explore workload.
func exploreSetup(o options) (bench.Circuit, error) {
	bm, err := bench.ByName(o.circuit)
	if err != nil {
		return bm, err
	}
	return bm, bm.Circ.Validate()
}

// runExplore runs fir-sweep or asso-profile: iterations back to back until
// the window closes (at least one), every iteration with the same seed, so
// all of them must walk the same trajectory.
func runExplore(ctx context.Context, o options, out *outcome, w io.Writer) error {
	var setupS float64
	if !o.trace {
		var err error
		if setupS, err = measureSetup(o, o.workDir); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	bm, err := exploreSetup(o)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	fmt.Fprintf(w, "# config circuit=%s basis=%s max_steps=%d samples=%d final_samples=%d workers=%d cache=cold\n",
		o.circuit, o.basis, o.maxSteps, max(o.samples, 1<<16), o.finalSamples, workers)

	// A traced run alternates traced and plain iterations; the instruments
	// are read around the traced ones only. Each iteration starts from a
	// collected heap, as a fresh CLI process would; the collections are
	// not counted in the window.
	var iters []*iteration
	var d delta
	var gcTime time.Duration
	kept := false // whether an earlier iteration's result is held for the checks
	start := time.Now()
	for i := 0; i == 0 || time.Since(start)-gcTime < o.window; i++ {
		t := time.Now()
		runtime.GC()
		gcTime += time.Since(t)
		if traced := o.trace && i%2 == 0; traced {
			d.bracket(func() { iters = append(iters, exploreOnce(ctx, bm, o, true)) })
		} else {
			iters = append(iters, exploreOnce(ctx, bm, o, false))
		}
		if it := iters[len(iters)-1]; kept {
			it.release()
		} else {
			kept = it.err == nil
		}
	}
	elapsed := time.Since(start) - gcTime
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	// Output checks, outside the timed window.
	out.attempted = len(iters)
	var first *iteration
	for i, it := range iters {
		if it.err != nil {
			out.fail(i, "%v", it.err)
			continue
		}
		if it.res != nil {
			it.hash, it.area = trajectoryHash(it.res), areaRatio(it.res)
		}
		if first == nil {
			first = it
			continue
		}
		if it.hash != first.hash {
			out.fail(i, "trajectory %s differs from the first iteration's %s (same seed)", it.hash, first.hash)
		}
		if it.finalRep != first.finalRep {
			out.fail(i, "final report differs from the first iteration's (same seed)")
		}
	}
	if first == nil {
		return fmt.Errorf("every iteration failed")
	}
	fi := indexOf(iters, first)
	if first.res == nil {
		return fmt.Errorf("first completed iteration %d was released before its checks", fi)
	}
	if o.breakCheck {
		corrupt(first.res)
	}
	if err := checkSteps(first.res); err != nil {
		out.fail(fi, "%v", err)
	}
	for i, it := range iters {
		if it.err == nil {
			if err := checkFinal(it.finalRep, o.finalSamples); err != nil {
				out.fail(i, "%v", err)
			}
		}
	}
	res := first.res
	// final_report_s (per-layer: see LAYERS.md): FinalMetrics passes over
	// the first result after the window; each must reproduce the report of
	// the timed iterations. Each
	// pass starts from a collected heap whose free memory has gone back to
	// the OS, so it allocates fresh pages as a fresh CLI process would; a
	// pass's speed depends on where its arrays land, and this spreads that
	// over the passes instead of fixing it once per process.
	var passes []float64
	for p := 0; p < o.finalReps; p++ {
		debug.FreeOSMemory()
		t := time.Now()
		_, rep, err := res.FinalMetrics(res.BestStep, o.finalSamples)
		passes = append(passes, time.Since(t).Seconds())
		if err == nil && rep != first.finalRep {
			err = fmt.Errorf("report differs from the timed iterations'")
		}
		if err != nil {
			out.fail(fi, "final metrics pass %d: %v", p, err)
		}
	}
	fmt.Fprintf(w, "# trajectory hash=%s steps=%d best_step=%d blocks=%d area_ratio=%.6f final_avg_rel=%.6g iterations=%d\n",
		first.hash, len(res.Steps), res.BestStep, len(res.Profiles), areaRatio(res), first.finalRep.AvgRel, len(iters))

	var approx, latency, areas []float64
	var steps []time.Duration
	var evals int
	for _, it := range iters {
		if it.err != nil {
			continue
		}
		approx = append(approx, it.approx.Seconds())
		latency = append(latency, it.latency.Seconds())
		areas = append(areas, it.area)
		steps = append(steps, it.steps...)
		evals += it.evals
	}
	if o.trace {
		out.metrics["job_latency_tail_s"], _ = tail(latency)
		out.metrics["final_report_s"] = median(passes)
		return exploreLayers(o, iters, first, d, out, w)
	}
	m := out.metrics
	m["setup_s"] = setupS
	m["approximate_s"] = median(approx)
	exploreWall := sum(steps).Seconds()
	m["steps_per_s"] = ratio(float64(len(steps)), exploreWall)
	m["candidate_evals_per_s"] = ratio(float64(evals), exploreWall)
	stepMS := millis(steps)
	m["step_p50_ms"] = median(stepMS)
	var stepLabel string
	m["step_tail_ms"], stepLabel = tail(stepMS)
	m["jobs_per_s"] = float64(len(approx)) / elapsed.Seconds()
	m["job_latency_p50_s"] = median(latency)
	m["peak_rss_mb"] = rss
	m["area_ratio"] = median(areas)
	fmt.Fprintf(w, "# samples steps=%d (tail %s) jobs=%d window=%.3fs final_passes=%.3f\n", len(steps), stepLabel, len(latency), elapsed.Seconds(), passes)
	return nil
}

// exploreLayers fills the per-layer metrics of a traced explore run: the
// program's instruments divided per iteration, the benchmark's own spans
// around each stage, and the layers re-driven call by call over the first
// iteration's blocks and trajectory.
func exploreLayers(o options, iters []*iteration, first *iteration, d delta, out *outcome, w io.Writer) error {
	m := out.metrics
	var tracedApprox, plainApprox, profile, stepSpans []float64
	for _, it := range iters {
		if it.err != nil {
			continue
		}
		if !it.traced {
			plainApprox = append(plainApprox, it.approx.Seconds())
			continue
		}
		tracedApprox = append(tracedApprox, it.approx.Seconds())
		tot := spanTotals(it.spans)
		profile = append(profile, tot["profile"].Seconds())
		stepSpans = append(stepSpans, tot["step"].Seconds())
	}
	if len(tracedApprox) == 0 {
		return fmt.Errorf("no traced iteration completed")
	}
	layerCounters(d, len(d), "memory", workers, m)
	fi := indexOf(iters, first)
	prof, err := redriveProfile(first.res, first.cache)
	if err != nil {
		out.fail(fi, "profile re-drive: %v", err)
	}
	er, err := redriveExplore(first.res)
	if err != nil {
		out.fail(fi, "explore re-drive: %v", err)
	}
	mapS, cmpS, err := redriveFinal(first.res, o.finalSamples, first.finalRep)
	if err != nil {
		out.fail(fi, "final re-drive: %v", err)
	}
	m["partition.decompose_s"] = er.decompose.Seconds()
	m["partition.extract_s"] = prof.extract.Seconds()
	m["partition.blocks"] = float64(er.blocks)
	m["synth.s"] = prof.synth.Seconds()
	m["synth.calls"] = float64(prof.synthCalls)
	m["techmap.map_s"] = prof.techmap.Seconds()
	m["techmap.map_calls"] = float64(prof.mapCalls)
	m["qor.baseline_s"] = er.baseline.Seconds()
	m["qor.commit_s"] = er.commit.Seconds()
	m["logic.rebuild_s"], m["qor.seq_compare_s"], m["qor.seq_compares"] = 0, 0, 0
	// Per-iteration means throughout, matching the instrument deltas, which
	// are totals over the traced iterations divided by their count.
	m["core.profile_s"] = mean(profile)
	// What the step spans hold beyond the sweep and the commit: the
	// reduction of the sweep's results, Pareto bookkeeping and the Progress
	// call. It is a residual, so it is left out of the attribution and
	// clamped at 0 here (timing noise can make it negative).
	reduce := mean(stepSpans) - m["core.sweep_s"] - m["qor.commit_s"]
	m["core.reduce_s"] = math.Max(0, reduce)
	m["final.map_s"] = mapS.Seconds()
	m["final.compare_s"] = cmpS.Seconds()
	for _, k := range []string{"engine.queue_wait_p50_s", "engine.run_s", "engine.overhead_s", "store.checkpoint_bytes", "store.write_bytes"} {
		m[k] = 0
	}
	m["trace.overhead_ratio"] = 0
	if len(plainApprox) > 0 {
		m["trace.overhead_ratio"] = mean(tracedApprox)/mean(plainApprox) - 1
	}

	total := time.Duration(mean(tracedApprox) * float64(time.Second))
	sec := func(k string) time.Duration { return time.Duration(m[k] * float64(time.Second)) }
	frac, rest := attribution(w, "approximate_s (traced iterations)", total, []part{
		{"partition.decompose", sec("partition.decompose_s")},
		{"core.profile", sec("core.profile_s")},
		{"qor.baseline", sec("qor.baseline_s")},
		{"core.sweep", sec("core.sweep_s")},
		{"qor.commit", sec("qor.commit_s")},
	})
	fmt.Fprintf(w, "#   unattributed includes core.reduce (step spans - sweep - commit) %.4fs\n", reduce)
	fmt.Fprintf(w, "#   profile inside: bmf %.3f CPU-s over %.0f factorizations, synth %.3fs, techmap %.3fs, extract %.3fs (serial re-drive)\n",
		m["bmf.factorize_s"], m["bmf.factorize_calls"], m["synth.s"], m["techmap.map_s"], m["partition.extract_s"])
	fmt.Fprintf(w, "#   sweep inside: compile %.3f, simulate %.3f (decode %.3f) CPU-s over %.0f candidates\n",
		m["qor.compile_s"], m["qor.simulate_s"], m["qor.decode_s"], m["qor.candidate_evals"])
	m["trace.attributed_frac"] = frac
	m["trace.unattributed_s"] = rest.Seconds()
	return nil
}

func indexOf[T comparable](xs []T, x T) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
