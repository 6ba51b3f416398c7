package engine

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/telemetry"
)

// TestMetricsExposition runs one durable job and validates the whole
// /metrics page: well-formed Prometheus text (HELP/TYPE before samples, no
// duplicate families, monotone histogram buckets), a healthy family count,
// and the flow's key latency histograms present with data.
func TestMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	e := New(Options{Workers: 1, Store: st})
	defer e.Close()
	ts := httptest.NewServer(NewServer(e))
	defer ts.Close()

	j, err := e.Submit(adderRequest(t, 4, persistCfg()))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d %s", resp.StatusCode, body)
	}
	page := string(body)
	if err := telemetry.ValidateExposition(page); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, page)
	}

	// Inventory the families from the TYPE lines.
	families := map[string]string{}
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 4 {
			t.Fatalf("malformed TYPE line: %q", line)
		}
		if prev, dup := families[parts[2]]; dup {
			t.Fatalf("family %s declared twice (%s, %s)", parts[2], prev, parts[3])
		}
		families[parts[2]] = parts[3]
	}
	if len(families) < 15 {
		t.Fatalf("only %d metric families exposed, want >= 15:\n%v", len(families), families)
	}
	histograms := 0
	for _, typ := range families {
		if typ == "histogram" {
			histograms++
		}
	}
	if histograms < 4 {
		t.Fatalf("only %d histogram families exposed, want >= 4", histograms)
	}
	// The flow's four key latency histograms, each from a different layer.
	for _, name := range []string{
		"blasys_bmf_factorize_seconds",
		"blasys_core_candidate_eval_seconds",
		"blasys_engine_queue_wait_seconds",
		"blasys_store_checkpoint_write_seconds",
	} {
		if families[name] != "histogram" {
			t.Fatalf("family %s: type %q, want histogram", name, families[name])
		}
		if !strings.Contains(page, name+"_count") {
			t.Fatalf("family %s has no _count sample", name)
		}
	}
	// The engine registry is per-engine, so this engine's one completed job
	// is exactly 1 regardless of other tests in the process.
	if !strings.Contains(page, "blasys_jobs_completed_total 1") {
		t.Fatalf("completed counter missing or wrong:\n%s", page)
	}
}

// TestReadyzVarsAndPprof covers the non-scrape observability surfaces:
// liveness vs readiness, the JSON metrics dump, and opt-in pprof mounting.
func TestReadyzVarsAndPprof(t *testing.T) {
	e := New(Options{Workers: 1})
	ts := httptest.NewServer(NewServer(e, WithPprof()))
	defer ts.Close()

	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d %s", resp.StatusCode, body)
	}
	resp, body = getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz: %d %s", resp.StatusCode, body)
	}

	resp, body = getBody(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars: %d %s", resp.StatusCode, body)
	}
	var vars struct {
		Engine  map[string]any `json:"engine"`
		Process map[string]any `json:"process"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	if len(vars.Engine) == 0 || len(vars.Process) == 0 {
		t.Fatalf("/debug/vars missing registries: engine=%d process=%d series",
			len(vars.Engine), len(vars.Process))
	}

	resp, body = getBody(t, ts.URL+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline with WithPprof: %d %s", resp.StatusCode, body)
	}

	// A closed engine flips readiness but stays live.
	e.Close()
	resp, body = getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after Close: %d %s, want 503", resp.StatusCode, body)
	}
	resp, _ = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after Close: %d, want 200", resp.StatusCode)
	}

	// Without the option the pprof routes don't exist.
	e2 := New(Options{Workers: 1})
	defer e2.Close()
	ts2 := httptest.NewServer(NewServer(e2))
	defer ts2.Close()
	resp, _ = getBody(t, ts2.URL+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof without WithPprof: %d, want 404", resp.StatusCode)
	}
}

// treeNames collects every span name of a forest.
func treeNames(nodes []*telemetry.SpanNode, into map[string]int) {
	for _, n := range nodes {
		into[n.Name]++
		treeNames(n.Children, into)
	}
}

// findNode returns the first node with the given name, depth-first.
func findNode(nodes []*telemetry.SpanNode, name string) *telemetry.SpanNode {
	for _, n := range nodes {
		if n.Name == name {
			return n
		}
		if f := findNode(n.Children, name); f != nil {
			return f
		}
	}
	return nil
}

// TestJobTimelineEndpoint checks the span tree of a finished job: the
// expected stage structure, durations that account for the job's wall time,
// and the folded text rendering.
func TestJobTimelineEndpoint(t *testing.T) {
	ts, e := newTestServer(t)
	j, err := e.Submit(adderRequest(t, 4, persistCfg()))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	resp, body := getBody(t, ts.URL+"/v1/jobs/"+j.ID+"/timeline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline: %d %s", resp.StatusCode, body)
	}
	var tl timelineResponse
	if err := json.Unmarshal(body, &tl); err != nil {
		t.Fatalf("timeline not JSON: %v\n%s", err, body)
	}
	if tl.JobID != j.ID || tl.State != StateDone {
		t.Fatalf("timeline header = %s/%s, want %s/done", tl.JobID, tl.State, j.ID)
	}
	names := map[string]int{}
	treeNames(tl.Tree, names)
	for _, want := range []string{"job", "queue", "run", "profile", "explore", "step"} {
		if names[want] == 0 {
			t.Fatalf("no %q span in timeline; got %v", want, names)
		}
	}

	// The root span must account for the job's wall time, and its children
	// (queue + run) for the root — within 10% plus scheduling slack.
	st := j.Snapshot(false)
	if st.Started == nil || st.Finished == nil {
		t.Fatalf("done job missing timestamps: %+v", st)
	}
	wall := st.Finished.Sub(st.Created).Seconds()
	root := findNode(tl.Tree, "job")
	if root == nil {
		t.Fatal("no job root span")
	}
	slack := wall*0.10 + 0.020
	if diff := wall - root.DurationSeconds; diff < 0 || diff > slack {
		t.Fatalf("job span %.6fs vs wall %.6fs: diff %.6fs exceeds 10%%+20ms", root.DurationSeconds, wall, diff)
	}
	var children float64
	for _, c := range root.Children {
		children += c.DurationSeconds
	}
	if diff := root.DurationSeconds - children; diff < 0 || diff > slack {
		t.Fatalf("children sum %.6fs vs job span %.6fs: diff %.6fs exceeds 10%%+20ms", children, root.DurationSeconds, diff)
	}

	resp, body = getBody(t, ts.URL+"/v1/jobs/"+j.ID+"/timeline?format=folded")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("folded timeline: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "job;run;explore;step ") {
		t.Fatalf("folded output missing step stack:\n%s", body)
	}
}

// TestTimelineSurvivesRestart replays the journal into a restored job's
// timeline: a restarted server serves the same stage spans for a job that
// finished before the restart.
func TestTimelineSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	e1 := New(Options{Workers: 1, Store: st1})
	j1, err := e1.Submit(adderRequest(t, 4, persistCfg()))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	before := j1.Timeline()
	if len(before) == 0 {
		t.Fatal("live job recorded no spans")
	}
	e1.Close()

	st2 := openStore(t, dir)
	e2 := New(Options{Workers: 1, Store: st2, Resume: true})
	defer e2.Close()
	j2, err := e2.Get(j1.ID)
	if err != nil {
		t.Fatalf("job lost across restart: %v", err)
	}
	after := j2.Timeline()
	if len(after) != len(before) {
		t.Fatalf("restored timeline has %d spans, want %d", len(after), len(before))
	}
	byID := map[uint64]telemetry.SpanRecord{}
	for _, r := range before {
		byID[r.ID] = r
	}
	for _, r := range after {
		orig, ok := byID[r.ID]
		if !ok {
			t.Fatalf("restored span %d (%s) never recorded live", r.ID, r.Name)
		}
		if r.Name != orig.Name || r.Parent != orig.Parent {
			t.Fatalf("span %d diverged: %s/%d vs %s/%d", r.ID, r.Name, r.Parent, orig.Name, orig.Parent)
		}
		if r.End.IsZero() {
			t.Fatalf("restored span %d (%s) has no end time", r.ID, r.Name)
		}
		// Serialization drops the monotonic clock reading, so restored
		// durations differ from live ones by wall-vs-monotonic skew only.
		if got, want := r.Duration(), orig.Duration(); (got - want).Abs() > time.Millisecond {
			t.Fatalf("span %d duration %v, want ~%v", r.ID, got, want)
		}
	}

	// And the restored job's counter shows up on the fresh engine's page.
	ts := httptest.NewServer(NewServer(e2))
	defer ts.Close()
	_, body := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "blasys_jobs_restored_total 1") {
		t.Fatalf("restored counter missing:\n%s", body)
	}
}

// gatedCache holds every lookup until open is closed.
type gatedCache struct {
	bmf.Cache
	open <-chan struct{}
}

func (c gatedCache) Get(k bmf.Key) (any, bool) {
	<-c.open
	return c.Cache.Get(k)
}

// TestStageEventsStreamed subscribes to a job and checks completed stage
// spans arrive as events alongside the state/trace stream.
func TestStageEventsStreamed(t *testing.T) {
	// Stage events are live-only: the job's first factorization waits at
	// the cache until the subscription is in place.
	open := make(chan struct{})
	e := New(Options{Workers: 1, Cache: gatedCache{bmf.NewMemoryCache(), open}})
	defer e.Close()
	j, err := e.Submit(adderRequest(t, 4, persistCfg()))
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := j.Subscribe()
	defer cancel()
	close(open)
	stages := map[string]int{}
	deadline := time.After(2 * time.Minute)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				if stages["run"] == 0 || stages["job"] == 0 || stages["step"] == 0 {
					t.Fatalf("stream ended with stage events missing: %v", stages)
				}
				return
			}
			if ev.Type == EventStage {
				if ev.Span == nil || ev.Span.End.IsZero() {
					t.Fatalf("stage event without a completed span: %+v", ev)
				}
				stages[ev.Span.Name]++
			}
		case <-deadline:
			t.Fatalf("no terminal event; stages so far: %v", stages)
		}
	}
}
