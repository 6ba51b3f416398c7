// Command e2ebench is the repository's end-to-end benchmark: it drives one
// named BLASYS workload through the library's public layers (core, engine,
// store) for a fixed wall-clock window, checks the outputs independently,
// and prints every end-to-end metric (or, with -trace 1, every per-layer
// metric) by name with its unit. The last stdout line is one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash e2ebench/run.sh --workload fir-sweep --seed 1 --seconds 25 --trace 0
//
// Workloads, metrics and the layer map are described in LAYERS.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"github.com/blasys-go/blasys/internal/core"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics a user of the flow sees, printed by untraced
// runs. Every workload reports all of them; LAYERS.md gives the per-workload
// meaning of the generic ones (a "job" is one closed-loop operation).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"approximate_s", "s"},
	{"steps_per_s", "1/s"},
	{"candidate_evals_per_s", "1/s"},
	{"step_p50_ms", "ms"},
	{"step_tail_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"job_latency_p50_s", "s"},
	{"peak_rss_mb", "MB"},
	{"area_ratio", "ratio"},
	{"success_frac", "ratio"},
}

// perLayer lists the traced run's layer metrics. Seconds and counts are per
// operation (one ApproximateCtx, or one served job) unless LAYERS.md says
// otherwise; a layer a workload never enters reports 0.
var perLayer = []metricSpec{
	{"partition.decompose_s", "s"},
	{"partition.extract_s", "s"},
	{"partition.blocks", "count"},
	{"bmf.factorize_s", "s"},
	{"bmf.factorize_calls", "count"},
	{"bmf.cache_hit_ratio", "ratio"},
	{"synth.s", "s"},
	{"synth.calls", "count"},
	{"techmap.map_s", "s"},
	{"techmap.map_calls", "count"},
	{"qor.baseline_s", "s"},
	{"qor.candidate_evals", "count"},
	{"qor.compile_s", "s"},
	{"qor.simulate_s", "s"},
	{"qor.decode_s", "s"},
	{"qor.cone_batches", "count"},
	{"qor.clean_batch_ratio", "ratio"},
	{"qor.commit_s", "s"},
	{"logic.rebuild_s", "s"},
	{"qor.seq_compare_s", "s"},
	{"qor.seq_compares", "count"},
	{"core.profile_s", "s"},
	{"core.sweep_s", "s"},
	{"core.reduce_s", "s"},
	{"core.sweep_efficiency", "ratio"},
	{"core.frontier_points", "count"},
	{"final_report_s", "s"},
	{"final.map_s", "s"},
	{"final.compare_s", "s"},
	{"engine.queue_wait_p50_s", "s"},
	{"engine.run_s", "s"},
	{"engine.overhead_s", "s"},
	{"job_latency_tail_s", "s"},
	{"store.checkpoint_writes", "count"},
	{"store.checkpoint_bytes", "bytes"},
	{"store.checkpoint_s", "s"},
	{"store.journal_appends", "count"},
	{"store.journal_s", "s"},
	{"store.fsync_s", "s"},
	{"store.write_bytes", "bytes"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.attributed_frac", "ratio"},
	{"trace.unattributed_s", "s"},
	{"failed_frac", "ratio"},
}

// workers is the benchmark's thread budget: the sweep pool and the engine
// pool both use it, and GOMAXPROCS is capped at it, so load never exceeds
// two threads of work even on a larger host.
const workers = 2

// options fixes one workload's inputs and sizes. workloadOptions holds the
// published sizes; the smoke test shrinks them.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool

	circuit      string     // explore workloads: the circuit
	basis        core.Basis // explore workloads: the factor family
	maxSteps     int        // explore workloads: exploration cap per run
	samples      int        // exploration samples (0 = core default, 2^16)
	finalSamples int        // FinalMetrics samples
	setupReps    int        // probe processes timed for setup_s
	mix          []string   // served-mix: circuits of one round
	finalReps    int        // FinalMetrics passes timed for final_report_s
	workDir      string     // served-mix: parent of the store directories

	// breakCheck corrupts the first operation's result before it is
	// checked, so tests can see a failed output check surface in the
	// counts. Never set by the command.
	breakCheck bool
}

// workloadOptions returns the published configuration of a workload.
func workloadOptions(name string) (options, error) {
	o := options{workload: name, finalSamples: 1 << 20, setupReps: 101, finalReps: 9, workDir: ".bench_build"}
	switch name {
	case "fir-sweep":
		o.circuit, o.basis, o.maxSteps = "FIR", core.BasisColumns, 12
	case "asso-profile":
		o.circuit, o.basis, o.maxSteps = "FIR", core.BasisASSO, 10
	case "served-mix":
		o.mix = []string{"Mult8", "Adder32", "BUT", "SAD"}
	default:
		return o, fmt.Errorf("unknown workload %q (want fir-sweep, asso-profile or served-mix)", name)
	}
	return o, nil
}

// outcome is the benchmark's verdict: operations attempted, the failures
// among them (errors and failed output checks, each operation counted once),
// and the metrics of the run.
type outcome struct {
	attempted int
	failures  map[int]string // operation index -> first failure
	metrics   map[string]float64
	specs     []metricSpec
}

func newOutcome(trace bool) *outcome {
	o := &outcome{failures: map[int]string{}, metrics: map[string]float64{}, specs: endToEnd}
	if trace {
		o.specs = perLayer
	}
	return o
}

// fail records that operation op failed; the first reason is kept.
func (o *outcome) fail(op int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintf(os.Stderr, "e2ebench: FAIL op %d: %s\n", op, msg)
	if _, seen := o.failures[op]; !seen {
		o.failures[op] = msg
	}
}

func (o *outcome) failedFrac() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(len(o.failures)) / float64(o.attempted)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints one "metric" line per reported metric, then the JSON verdict
// as the last line. Every metric of the run's set must have been measured.
func (o *outcome) write(w io.Writer) (jsonResult, error) {
	res := jsonResult{
		Correct:   len(o.failures) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    len(o.failures),
		Metrics:   map[string]jsonMetric{},
	}
	for _, s := range o.specs {
		v, ok := o.metrics[s.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", s.name, v)
		}
		fmt.Fprintf(w, "metric %-26s %16.6f %s\n", s.name, v, s.unit)
		res.Metrics[s.name] = jsonMetric{Value: v, Unit: s.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(w, "%s\n", b)
	return res, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs the workload and prints the result. It
// returns 0 when every output check passed, 1 when one failed or the run
// could not complete, and 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: fir-sweep, asso-profile or served-mix")
	seed := fs.Int64("seed", 1, "workload seed (same seed, same inputs)")
	secs := fs.Int("seconds", 25, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	probe := fs.String("setup-probe", "", "internal: set up the workload (served-mix: its store in this directory), print \"ready\" and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runtime.GOMAXPROCS(0) > workers {
		runtime.GOMAXPROCS(workers)
	}
	o, err := workloadOptions(*workload)
	if err == nil && *probe != "" {
		if err := setupProbe(o, *probe, stdout); err != nil {
			fmt.Fprintf(stderr, "e2ebench: setup probe: %v\n", err)
			return 1
		}
		return 0
	}
	if err != nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: bad arguments: workload=%q seconds=%d trace=%d: %v\n", *workload, *secs, *trace, err)
		return 2
	}
	o.seed, o.window, o.trace = *seed, time.Duration(*secs)*time.Second, *trace == 1
	res, err := runWorkload(context.Background(), o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload prints the header, runs the workload and writes its metrics.
func runWorkload(ctx context.Context, o options, w io.Writer) (jsonResult, error) {
	fmt.Fprintf(w, "# e2ebench workload=%s seed=%d seconds=%g trace=%t\n", o.workload, o.seed, o.window.Seconds(), o.trace)
	fmt.Fprintln(w, hostHeader())
	steal0, total0 := cpuSteal()
	out := newOutcome(o.trace)
	var err error
	if o.workload == "served-mix" {
		err = runServed(ctx, o, out, w)
	} else {
		err = runExplore(ctx, o, out, w)
	}
	if err != nil {
		return jsonResult{}, err
	}
	// Time the hypervisor gave the machine's CPUs to other guests slows
	// every figure of a run alike; printing it tells a slow host from a
	// slow program.
	steal1, total1 := cpuSteal()
	fmt.Fprintf(w, "# host steal=%.1f%% of CPU time during the run\n", 100*ratio(steal1-steal0, total1-total0))
	if o.trace {
		out.metrics["failed_frac"] = out.failedFrac()
	} else {
		out.metrics["success_frac"] = 1 - out.failedFrac()
	}
	return out.write(w)
}

// setupProbe is the child side of setup_s: it does the set-up a benchmark
// process does before its first timed call, reports "ready" on stdout, then
// tears the set-up down.
func setupProbe(o options, dir string, stdout io.Writer) error {
	if o.workload == "served-mix" {
		svc, err := openService(o.mix, dir)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "ready")
		return svc.close()
	}
	if _, err := exploreSetup(o); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "ready")
	return nil
}

// measureSetup is setup_s: the time from starting a fresh benchmark process
// to that process being ready for its first timed call (runtime and package
// initialisation, the circuits, and on served-mix the store and engine). It
// starts o.setupReps probe processes one after another, each waited for,
// and returns the median in seconds. Probe stores go under dir.
func measureSetup(o options, dir string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < o.setupReps; i++ {
		cmd := exec.Command(exe, "--workload", o.workload, "--setup-probe", filepath.Join(dir, fmt.Sprintf("probe-%d", i)))
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, readErr := bufio.NewReader(pipe).ReadString('\n')
		ready := time.Since(start)
		_, _ = io.Copy(io.Discard, pipe)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("probe %d: %w", i, err)
		}
		if readErr != nil || line != "ready\n" {
			return 0, fmt.Errorf("probe %d printed %q (%v), want ready", i, line, readErr)
		}
		times = append(times, ready.Seconds())
	}
	return median(times), nil
}
