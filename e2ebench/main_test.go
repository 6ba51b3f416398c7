package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/core"
)

// TestMain lets the test binary stand in for the command when setup_s
// starts it as a set-up probe process.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--setup-probe" {
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

// tiny shrinks a workload to a second or so: small circuits, few samples,
// a window that admits exactly one operation (or one round).
func tiny(t *testing.T, workload string, trace bool) options {
	t.Helper()
	o, err := workloadOptions(workload)
	if err != nil {
		t.Fatal(err)
	}
	o.seed, o.window, o.trace = 3, time.Millisecond, trace
	o.setupReps, o.finalSamples, o.finalReps = 2, 1<<10, 1
	o.workDir = t.TempDir()
	switch workload {
	case "served-mix":
		o.mix = []string{"BUT"}
	default:
		o.circuit, o.basis, o.maxSteps, o.samples = "BUT", core.BasisColumns, 3, 256
	}
	return o
}

// runTiny runs a shrunken workload and returns its stdout and parsed verdict.
func runTiny(t *testing.T, o options) (string, jsonResult) {
	t.Helper()
	var buf bytes.Buffer
	res, err := runWorkload(context.Background(), o, &buf)
	if err != nil {
		t.Fatalf("%s: %v\n%s", o.workload, err, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the JSON verdict: %v\n%s", err, buf.String())
	}
	if last.Correct != res.Correct || last.Failed != res.Failed || last.Attempted != res.Attempted {
		t.Fatalf("printed verdict %+v differs from returned %+v", last, res)
	}
	return buf.String(), last
}

// TestSmokeEveryMetricPrinted runs every workload at tiny sizes, untraced and
// traced, and checks that each declared metric is printed by name with its
// unit, both as a text line and in the JSON verdict.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	for _, workload := range []string{"fir-sweep", "asso-profile", "served-mix"} {
		for _, trace := range []bool{false, true} {
			o := tiny(t, workload, trace)
			if workload == "asso-profile" {
				o.basis = core.BasisASSO
			}
			out, res := runTiny(t, o)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: verdict %+v\n%s", workload, trace, res, out)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%t: %d metrics printed, want %d", workload, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %q", workload, trace, s.name, m, s.unit)
				}
				line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(s.name) + ` +\S+ ` + regexp.QuoteMeta(s.unit) + `$`)
				if !line.MatchString(out) {
					t.Errorf("%s trace=%t: no text line for %s", workload, trace, s.name)
				}
			}
			if !strings.Contains(out, "# host nproc=") || !strings.Contains(out, "# host steal=") {
				t.Errorf("%s: no host header or steal line", workload)
			}
		}
	}
}

// TestSmokeForcedFailure corrupts one result before it is checked: the run
// must report itself incorrect and count the failure in both fractions.
func TestSmokeForcedFailure(t *testing.T) {
	for _, workload := range []string{"fir-sweep", "served-mix"} {
		for _, trace := range []bool{false, true} {
			o := tiny(t, workload, trace)
			o.breakCheck = true
			out, res := runTiny(t, o)
			if res.Correct || res.Failed < 1 {
				t.Errorf("%s trace=%t: forced failure not reported: %+v\n%s", workload, trace, res, out)
			}
			if trace {
				if got := res.Metrics["failed_frac"].Value; got <= 0 {
					t.Errorf("%s: failed_frac = %v after a forced failure", workload, got)
				}
			} else if got := res.Metrics["success_frac"].Value; got >= 1 {
				t.Errorf("%s: success_frac = %v after a forced failure", workload, got)
			}
		}
	}
}

// TestSmokeTrajectoryHashRepeats runs one seed twice in separate runs: the
// printed trajectory hash must not change.
func TestSmokeTrajectoryHashRepeats(t *testing.T) {
	hash := regexp.MustCompile(`# trajectory hash=(\w+)`)
	var got []string
	for i := 0; i < 2; i++ {
		out, _ := runTiny(t, tiny(t, "fir-sweep", false))
		m := hash.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no trajectory line:\n%s", out)
		}
		got = append(got, m[1])
	}
	if got[0] != got[1] {
		t.Errorf("same seed, hashes %s and %s", got[0], got[1])
	}
}

// TestIndependentDecodeSequential checks the driver's own decode of a run
// with accumulator feedback (SAD): it reproduces the explorer's reports bit
// for bit, and a one-ulp drift in a report is caught.
func TestIndependentDecodeSequential(t *testing.T) {
	bm, err := bench.ByName("SAD")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ApproximateCtx(context.Background(), bm.Circ, bm.Spec,
		core.Config{Seed: 5, Samples: 1 << 12, MaxSteps: 4, Workers: 1, Sequence: bm.Seq})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no committed step")
	}
	if err := checkSteps(res); err != nil {
		t.Fatal(err)
	}
	corrupt(res)
	if err := checkSteps(res); err == nil {
		t.Error("a corrupted sequential report passed the independent decode")
	}
}

// TestCommandLine checks the exit codes of the command itself.
func TestCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fir-sweep", "--seconds", "0"},
		{"--workload", "fir-sweep", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed a result: %q", args, out.String())
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the benchmark's metric
// tables in step: same names, same units, same order, known workloads.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, w := range cfg.Workloads {
		if _, err := workloadOptions(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, tc := range []struct {
		name string
		got  []struct{ Name, Unit string }
		want []metricSpec
	}{{"end_to_end", cfg.EndToEnd, endToEnd}, {"per_layer", cfg.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, e2ebench declares %d", tc.name, len(tc.got), len(tc.want))
			continue
		}
		for i, m := range tc.got {
			if m.Name != tc.want[i].name || m.Unit != tc.want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), e2ebench %s (%s)", tc.name, i, m.Name, m.Unit, tc.want[i].name, tc.want[i].unit)
			}
		}
	}
}
