package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/engine"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/store"
)

// service is one set-up of the served-mix workload: the job circuits, a
// durable store in a fresh directory, and an engine over it configured as a
// two-worker server with one thread per job.
type service struct {
	circuits map[string]bench.Circuit
	dir      string
	st       *store.Store
	eng      *engine.Engine
}

func openService(mix []string, dir string) (*service, error) {
	s := &service{circuits: map[string]bench.Circuit{}, dir: dir}
	for _, name := range mix {
		bm, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		if err := bm.Circ.Validate(); err != nil {
			return nil, err
		}
		s.circuits[name] = bm
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	s.st = st
	s.eng = engine.New(engine.Options{
		Workers:        workers,
		JobParallelism: 1,
		Store:          st,
		Logger:         slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	return s, nil
}

// close stops the engine (waiting for its workers), closes the store and
// deletes its directory.
func (s *service) close() error {
	s.eng.Close()
	err := s.st.Close()
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

// jobSpec is one drawn submission: a benchmark circuit and its own seed.
type jobSpec struct {
	kind string
	seed int64
}

// servedJob is one completed closed-loop request.
type servedJob struct {
	jobSpec
	job     *engine.Job
	res     *core.Result
	latency time.Duration
	err     error
}

// jobSource deals the workload's job sequence to the clients: rounds of the
// mix in a seeded order, each job with a seeded exploration seed. Clients
// stop drawing once the window has closed and the round in progress is fully
// dealt, so every run serves whole rounds and the mix's proportions hold.
type jobSource struct {
	mu      sync.Mutex
	rng     *rand.Rand
	mix     []string
	pending []jobSpec
	dealt   int
	stopAt  time.Time
	stopped bool
}

func (s *jobSource) next() (jobSpec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped || (s.dealt > 0 && s.dealt%len(s.mix) == 0 && !time.Now().Before(s.stopAt)) {
		s.stopped = true
		return jobSpec{}, false
	}
	if len(s.pending) == 0 {
		for _, i := range s.rng.Perm(len(s.mix)) {
			s.pending = append(s.pending, jobSpec{kind: s.mix[i], seed: s.rng.Int63n(1 << 31)})
		}
	}
	js := s.pending[0]
	s.pending = s.pending[1:]
	s.dealt++
	return js, true
}

func (s *service) serve(ctx context.Context, js jobSpec) *servedJob {
	bm := s.circuits[js.kind]
	sj := &servedJob{jobSpec: js}
	start := time.Now()
	job, err := s.eng.Submit(engine.Request{
		Circuit:         bm.Circ,
		Spec:            bm.Spec,
		Config:          core.Config{Seed: js.seed, Sequence: bm.Seq},
		SourceBenchmark: js.kind,
	})
	if err == nil {
		err = job.Wait(ctx)
	}
	sj.latency = time.Since(start)
	sj.job = job
	switch {
	case err != nil:
		sj.err = err
	case job.State() != engine.StateDone:
		sj.err = fmt.Errorf("job %s ended %s: %v", job.ID, job.State(), job.Err())
	default:
		sj.res = job.Result()
	}
	return sj
}

// runServed runs served-mix: two closed-loop clients, each submitting a job
// and waiting for it before the next, against a durable two-worker engine.
func runServed(ctx context.Context, o options, out *outcome, w io.Writer) error {
	base, err := filepath.Abs(o.workDir)
	if err == nil {
		err = os.MkdirAll(base, 0o755)
	}
	var runDir string
	if err == nil {
		runDir, err = os.MkdirTemp(base, "e2ebench-served-")
	}
	if err != nil {
		return fmt.Errorf("work directory: %w", err)
	}
	defer os.RemoveAll(runDir)
	var setupS float64
	if !o.trace {
		if setupS, err = measureSetup(o, runDir); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	svc, err := openService(o.mix, filepath.Join(runDir, "store"))
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	fmt.Fprintf(w, "# config mix=%v engine_workers=%d job_parallelism=1 store=durable samples=65536 final_samples=%d\n",
		o.mix, workers, o.finalSamples)

	var wcharBefore float64
	if o.trace {
		if wcharBefore, err = procField("/proc/self/io", "wchar:"); err != nil {
			return err
		}
	}
	src := &jobSource{rng: rand.New(rand.NewSource(o.seed)), mix: o.mix, stopAt: time.Now().Add(o.window)}
	var (
		mu   sync.Mutex
		jobs []*servedJob
		wg   sync.WaitGroup
	)
	var d delta
	start := time.Now()
	d.bracket(func() {
		for c := 0; c < workers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					js, ok := src.next()
					if !ok {
						return
					}
					sj := svc.serve(ctx, js)
					mu.Lock()
					jobs = append(jobs, sj)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	})
	elapsed := time.Since(start)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	var wchar float64
	if o.trace {
		after, err := procField("/proc/self/io", "wchar:")
		if err != nil {
			return err
		}
		wchar = after - wcharBefore
	}
	if err := svc.close(); err != nil {
		return fmt.Errorf("close service: %w", err)
	}
	circuits := svc.circuits // the closed engine, which retains every job, is not used again

	// Output checks, outside the timed window.
	out.attempted = len(jobs)
	firstOf := map[string]int{} // kind -> index of its first completed job
	var kinds []string
	for i, sj := range jobs {
		if sj.err != nil {
			out.fail(i, "%s seed %d: %v", sj.kind, sj.seed, sj.err)
			continue
		}
		if _, seen := firstOf[sj.kind]; !seen {
			firstOf[sj.kind] = i
			kinds = append(kinds, sj.kind)
		}
		if o.breakCheck && i == 0 {
			corrupt(sj.res)
		}
		if err := checkSteps(sj.res); err != nil {
			out.fail(i, "%s seed %d: %v", sj.kind, sj.seed, err)
		}
		fmt.Fprintf(w, "# job %2d %-7s seed=%-10d steps=%3d best=%3d hash=%s latency=%.3fs\n",
			i, sj.kind, sj.seed, len(sj.res.Steps), sj.res.BestStep, trajectoryHash(sj.res), sj.latency.Seconds())
	}
	if len(kinds) == 0 {
		return fmt.Errorf("every job failed")
	}
	st := collectServed(jobs)
	// From here on only the first job of each kind is needed. Dropping the
	// other results keeps the live heap, and with it the cost of the timed
	// FinalMetrics passes below, independent of how many jobs a run served.
	for i, sj := range jobs {
		if firstOf[sj.kind] != i {
			sj.res, sj.job = nil, nil
		}
	}
	// A served job must walk exactly the trajectory a direct core run with
	// the same configuration walks. Checked on the first job of each kind.
	var ckptBytes, ckptWrites float64
	for _, kind := range kinds {
		i := firstOf[kind]
		sj := jobs[i]
		bm := circuits[kind]
		cfg := core.Config{Seed: sj.seed, Sequence: bm.Seq, Workers: workers}
		if o.trace {
			cfg.Checkpoint = func(st core.ExplorerState) {
				n, err := st.WriteTo(io.Discard)
				if err != nil {
					out.fail(i, "encode checkpoint: %v", err)
				}
				ckptBytes += float64(n)
				ckptWrites++
			}
		}
		direct, err := core.ApproximateCtx(ctx, bm.Circ, bm.Spec, cfg)
		if err != nil {
			out.fail(i, "direct %s run: %v", kind, err)
			continue
		}
		if got, want := trajectoryHash(sj.res), trajectoryHash(direct); got != want {
			out.fail(i, "%s seed %d: served trajectory %s, direct core run %s", kind, sj.seed, got, want)
		}
	}
	// final_report_s (per-layer): FinalMetrics passes over the first job of
	// each kind, each pass timing all kinds; every pass must reproduce the
	// same reports.
	var passes []float64
	finalRef := map[string]qor.Report{}
	for p := 0; p < o.finalReps; p++ {
		debug.FreeOSMemory() // as on the explore workloads
		var pass time.Duration
		for _, kind := range kinds {
			i := firstOf[kind]
			res := jobs[i].res
			t := time.Now()
			_, rep, err := res.FinalMetrics(res.BestStep, o.finalSamples)
			pass += time.Since(t)
			if err == nil {
				err = checkFinal(rep, o.finalSamples)
			}
			if prev, seen := finalRef[kind]; err == nil && seen && prev != rep {
				err = fmt.Errorf("final report changed between passes")
			}
			if err != nil {
				out.fail(i, "%s final metrics: %v", kind, err)
				continue
			}
			finalRef[kind] = rep
		}
		passes = append(passes, pass.Seconds())
	}

	if o.trace {
		st.wchar, st.ckptBytes, st.ckptWrites = wchar, ckptBytes, ckptWrites
		out.metrics["final_report_s"] = median(passes)
		return servedLayers(o, jobs, firstOf, kinds, finalRef, d, st, out, w)
	}
	m := out.metrics
	m["setup_s"] = setupS
	m["approximate_s"] = kindMedian(st.runByKind)
	m["steps_per_s"] = ratio(float64(len(st.stepMS)), st.stepTime.Seconds())
	m["candidate_evals_per_s"] = ratio(float64(st.evals), st.stepTime.Seconds())
	m["step_p50_ms"] = kindMedian(st.stepMSByKind)
	var stepLabel string
	m["step_tail_ms"], stepLabel = tail(st.stepMS)
	m["jobs_per_s"] = float64(st.ok) / elapsed.Seconds()
	m["job_latency_p50_s"] = kindMedian(st.latencyByKind)
	m["peak_rss_mb"] = rss
	m["area_ratio"] = math.Exp(mean(st.logAreas))
	fmt.Fprintf(w, "# samples steps=%d (tail %s) jobs=%d window=%.3fs final_passes=%.3f\n", len(st.stepMS), stepLabel, len(st.latency), elapsed.Seconds(), passes)
	return nil
}

// servedStats gathers the completed jobs' latencies and their timelines'
// stage durations. A job's overhead is its latency outside the queue and
// run spans: submission, journaling and the hand-back to the client.
type servedStats struct {
	ok                           int
	latency, queue, overhead     []float64
	latencyByKind, runByKind     map[string][]float64
	stepMSByKind                 map[string][]float64 // per-step milliseconds
	stepMS, logAreas             []float64
	profile, stepTime            time.Duration
	evals                        int
	seqJobs, seqEvals            int // sequential (SAD) jobs and their candidate evaluations
	wchar, ckptBytes, ckptWrites float64
}

func collectServed(jobs []*servedJob) servedStats {
	st := servedStats{latencyByKind: map[string][]float64{}, runByKind: map[string][]float64{}, stepMSByKind: map[string][]float64{}}
	for _, sj := range jobs {
		if sj.err != nil {
			continue
		}
		st.ok++
		st.latency = append(st.latency, sj.latency.Seconds())
		st.logAreas = append(st.logAreas, math.Log(areaRatio(sj.res)))
		var runD, queueD time.Duration
		for _, r := range sj.job.Timeline() {
			switch r.Name {
			case "run":
				runD = r.Duration()
			case "queue":
				queueD = r.Duration()
			case "profile":
				st.profile += r.Duration()
			case "step":
				ms := float64(r.Duration()) / float64(time.Millisecond)
				st.stepMS = append(st.stepMS, ms)
				st.stepMSByKind[sj.kind] = append(st.stepMSByKind[sj.kind], ms)
				st.stepTime += r.Duration()
			}
		}
		st.latencyByKind[sj.kind] = append(st.latencyByKind[sj.kind], sj.latency.Seconds())
		st.runByKind[sj.kind] = append(st.runByKind[sj.kind], runD.Seconds())
		st.queue = append(st.queue, queueD.Seconds())
		st.overhead = append(st.overhead, (sj.latency - queueD - runD).Seconds())
		for _, p := range sj.res.Frontier.Points() {
			if p.Step >= 0 {
				st.evals++
			}
		}
		if sj.res.Config.Sequence != nil {
			st.seqJobs++
			st.seqEvals += sj.res.Frontier.Size() - 1
		}
	}
	return st
}

// servedLayers fills the per-layer metrics of a traced served-mix run.
// Engine and store figures come from the job timelines and the store's
// instruments; the layers without instruments are re-driven over the first
// job of each kind and averaged over the kinds. finalRef holds each kind's
// FinalMetrics report.
func servedLayers(o options, jobs []*servedJob, firstOf map[string]int, kinds []string, finalRef map[string]qor.Report,
	d delta, st servedStats, out *outcome, w io.Writer) error {
	m := out.metrics
	n := float64(st.ok)
	layerCounters(d, st.ok, "tiered", 1, m)
	m["engine.queue_wait_p50_s"] = median(st.queue)
	m["engine.run_s"] = kindMedian(st.runByKind)
	m["engine.overhead_s"] = median(st.overhead)
	m["job_latency_tail_s"], _ = tail(st.latency)
	m["store.checkpoint_bytes"] = ratio(st.ckptBytes, st.ckptWrites)
	m["store.write_bytes"] = st.wchar / n
	m["core.profile_s"] = st.profile.Seconds() / n

	var (
		prof                                            profileRedrive
		decompose, baseline, commit, finalMap, finalCmp time.Duration
		rebuild, seqCmp                                 time.Duration
		blocks, rebuilds, combJobs                      int
	)
	for _, kind := range kinds {
		i := firstOf[kind]
		res := jobs[i].res
		p, err := redriveProfile(res, nil)
		if err != nil {
			out.fail(i, "%s profile re-drive: %v", kind, err)
		}
		prof.extract += p.extract
		prof.synth += p.synth
		prof.techmap += p.techmap
		prof.synthCalls += p.synthCalls
		prof.mapCalls += p.mapCalls
		er, err := redriveExplore(res)
		if err != nil {
			out.fail(i, "%s explore re-drive: %v", kind, err)
		}
		decompose += er.decompose
		blocks += er.blocks
		mapS, cmpS, err := redriveFinal(res, o.finalSamples, finalRef[kind])
		if err != nil {
			out.fail(i, "%s final re-drive: %v", kind, err)
		}
		finalMap += mapS
		finalCmp += cmpS
		if res.Config.Sequence == nil {
			baseline += er.baseline
			commit += er.commit
			combJobs++
			continue
		}
		// The paper-literal evaluator that sequential jobs take: rebuild the
		// substituted circuit, then run the multi-cycle comparison. Every
		// committed step is redone and must reproduce its report.
		cmp, err := qor.NewComparer(res.Circuit, res.Spec, res.Config.Sequence, res.Config.Samples, res.Config.Seed)
		if err != nil {
			out.fail(i, "%s sequential comparer: %v", kind, err)
			continue
		}
		for s := range res.Steps {
			t := time.Now()
			circ, err := res.CircuitAt(s)
			rebuild += time.Since(t)
			if err != nil {
				out.fail(i, "%s rebuild step %d: %v", kind, s, err)
				break
			}
			t = time.Now()
			rep, err := cmp.Compare(circ)
			seqCmp += time.Since(t)
			rebuilds++
			if err != nil || rep != res.Steps[s].Report {
				out.fail(i, "%s step %d: sequential re-compare %+v (err %v), job reported %+v", kind, s, rep, err, res.Steps[s].Report)
				break
			}
		}
	}
	k := float64(len(kinds))
	m["partition.decompose_s"] = decompose.Seconds() / k
	m["partition.extract_s"] = prof.extract.Seconds() / k
	m["partition.blocks"] = float64(blocks) / k
	m["synth.s"] = prof.synth.Seconds() / k
	m["synth.calls"] = float64(prof.synthCalls) / k
	m["techmap.map_s"] = prof.techmap.Seconds() / k
	m["techmap.map_calls"] = float64(prof.mapCalls) / k
	m["qor.baseline_s"] = ratio(baseline.Seconds(), float64(combJobs))
	m["qor.commit_s"] = ratio(commit.Seconds(), float64(combJobs))
	m["logic.rebuild_s"] = ratio(rebuild.Seconds(), float64(rebuilds))
	m["qor.seq_compare_s"] = ratio(seqCmp.Seconds(), float64(rebuilds))
	m["qor.seq_compares"] = ratio(float64(st.seqEvals), float64(st.seqJobs))
	m["final.map_s"] = finalMap.Seconds() / k
	m["final.compare_s"] = finalCmp.Seconds() / k
	reduce := st.stepTime.Seconds()/n - m["core.sweep_s"] - m["qor.commit_s"]*float64(combJobs)/k - m["store.checkpoint_s"]
	m["core.reduce_s"] = math.Max(0, reduce)
	// The engine's job timelines are always on and the benchmark adds no
	// instrument to served jobs, so tracing costs this workload nothing.
	m["trace.overhead_ratio"] = 0

	sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	frac, rest := attribution(w, "job latency (mean per job)", sec(mean(st.latency)), []part{
		{"engine.queue_wait", sec(mean(st.queue))},
		{"engine.overhead", sec(mean(st.overhead))},
		{"core.profile", sec(m["core.profile_s"])},
		{"core.steps", sec(st.stepTime.Seconds() / n)},
	})
	fmt.Fprintf(w, "#   steps inside: sweep %.3fs, store checkpoint %.3fs over %.0f writes (%.0f bytes each), journal %.3fs, unexplained (core.reduce) %.4fs\n",
		m["core.sweep_s"], m["store.checkpoint_s"], m["store.checkpoint_writes"], m["store.checkpoint_bytes"], m["store.journal_s"], reduce)
	m["trace.attributed_frac"] = frac
	m["trace.unattributed_s"] = rest.Seconds()
	return nil
}
