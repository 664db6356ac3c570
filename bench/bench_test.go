package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scoded/internal/server"
	"scoded/internal/store"
)

// inProcLauncher serves each instance from an in-process httptest.Server
// wrapping server.New, so the tests drive the same workload code the
// benchmark drives against scoded-serve child processes.
type inProcLauncher struct{}

func (inProcLauncher) start(ctx context.Context, spec serverSpec) (*instance, error) {
	var st *store.Store
	if spec.dataDir != "" {
		var err error
		if st, err = store.Open(spec.dataDir); err != nil {
			return nil, err
		}
	}
	srv := server.New(server.Options{Store: st, ResidentBytes: spec.residentBytes})
	if err := srv.LoadStore(); err != nil {
		srv.Close()
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &instance{url: ts.URL, flags: spec.flags(), pid: os.Getpid(), stop: func() error {
		ts.Close()
		srv.Close()
		return nil
	}}, nil
}

// testConfig shrinks every workload to a few ops on small inputs.
func testConfig(seed int64) config {
	return config{
		seed: seed, maxOps: 6, setupReps: 1, warmOps: 1,
		mainRows: 1500, mainStrata: 4,
		drillRows: 400, drillStrata: 4, drillK: 20,
		appendRows: 20, epochCycles: 3,
		ingestBatch: 32, ingestWindow: 128,
		sampleEvery: 2, replayOps: 2, replaySlowOps: 1,
	}
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func testEnv(t *testing.T, cfg config) *env {
	return &env{cfg: cfg, in: genInputs(cfg), launch: inProcLauncher{}, work: t.TempDir()}
}

func runAll(t *testing.T, e *env, spec *benchSpec) map[string]*record {
	t.Helper()
	out := make(map[string]*record)
	for _, w := range spec.Workloads {
		wl, _ := workloadByName(w.Name)
		rec, err := runWorkload(context.Background(), e, wl, spec, runMeta{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		out[w.Name] = rec
	}
	return out
}

func TestWorkloadsCorrectAndComplete(t *testing.T) {
	spec := testSpec(t)
	for _, seed := range []int64{1, 2} {
		recs := runAll(t, testEnv(t, testConfig(seed)), spec)
		for name, rec := range recs {
			if rec.Failed != 0 || !rec.Correct {
				t.Errorf("seed %d %s: %d failed: %v", seed, name, rec.Failed, rec.Errors)
			}
			if rec.Attempted < 1 {
				t.Errorf("seed %d %s: attempted %d", seed, name, rec.Attempted)
			}
			for _, d := range spec.EndToEnd {
				m, ok := rec.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("seed %d %s: metric %s missing or with the wrong unit: %+v", seed, name, d.Name, m)
				}
				// CPU time has clock-tick resolution, so a few tiny ops may
				// read zero here; full-size runs never do.
				if m.Value < 0 || (m.Value == 0 && d.Name != "server_cpu_ms_per_op") { //scoded:lint-ignore floatcmp zero is the exact value a metric that was never measured holds
					t.Errorf("seed %d %s: metric %s = %v, want > 0", seed, name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestCorruptReferenceCountsAsFailure(t *testing.T) {
	cfg := testConfig(1)
	cfg.corrupt = true
	for name, rec := range runAll(t, testEnv(t, cfg), testSpec(t)) {
		if rec.Failed == 0 || rec.Correct {
			t.Errorf("%s: a corrupted reference went unnoticed", name)
		}
	}
}

func TestTracedReplay(t *testing.T) {
	spec := testSpec(t)
	for _, seed := range []int64{1, 2} {
		cfg := testConfig(seed)
		// The replay fails with errMiss if detection misses the kernel cache
		// after the kernel probe warmed it.
		r, _, err := runReplay(context.Background(), cfg, genInputs(cfg), t.TempDir(), true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checkTree(r.tr.spans); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		roots := 0
		for _, s := range r.tr.spans {
			if s.Parent == 0 {
				roots++
			}
		}
		if roots != r.tr.ops {
			t.Errorf("seed %d: %d root spans for %d ops", seed, roots, r.tr.ops)
		}
		if _, err := emit(spec.PerLayer, layerMetrics(r, 0, 0)); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	for _, d := range spec.PerLayer {
		if layerTargets[d.Name] == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it moves", d.Name)
		}
	}
	if len(layerTargets) != len(spec.PerLayer) {
		t.Errorf("%d layer targets for %d per-layer metrics", len(layerTargets), len(spec.PerLayer))
	}
}

func TestTracedRunWritesSpans(t *testing.T) {
	cfg := testConfig(1)
	path := filepath.Join(t.TempDir(), "spans.json")
	var log bytes.Buffer
	rec, err := traceWorkload(context.Background(), cfg, genInputs(cfg), t.TempDir(), "drilldown", path, testSpec(t), runMeta{}, &log)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Fatalf("traced run failed: %v", rec.Errors)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "unattributed root time") {
		t.Errorf("summary lacks the unattributed root time:\n%s", log.String())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "store.a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Op: 1, Name: "kernel.b", Start: 15, End: 25},
		{ID: 4, Parent: 1, Op: 1, Name: "detect.c", Start: 50, End: 90},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 30, 2: 20, 3: 10, 4: 40}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
	if err := checkTree(spans); err != nil {
		t.Error(err)
	}
	spans[3].End = 120 // a child outliving its parent
	if checkTree(spans) == nil {
		t.Error("checkTree accepted a child outside its parent")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 { //scoded:lint-ignore floatcmp exact values of a hand-checked fixture
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q3 != 2.25 { //scoded:lint-ignore floatcmp exact values of a hand-checked fixture
		t.Errorf("quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.1}
	old := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	faster := make([]float64, len(old))
	slower := make([]float64, len(old))
	for i, v := range old {
		faster[i], slower[i] = v*0.8, v*1.2
	}
	cases := []struct {
		cur  []float64
		want string
	}{{faster, "better"}, {slower, "worse"}, {old, "same"}}
	for _, c := range cases {
		if got, _, _ := verdict(lower, old, c.cur); got != c.want {
			t.Errorf("verdict = %s, want %s", got, c.want)
		}
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	if got, _, _ := verdict(lower, noisy, noisy); got != "unresolved" {
		t.Errorf("verdict on a spread wider than the bound = %s, want unresolved", got)
	}
}
