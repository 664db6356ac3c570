package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"scoded/internal/detect"
	"scoded/internal/drilldown"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stream"
)

// testCSV builds a small car-style dataset with a real Model→Price
// dependence, an independent Noise column, and numeric mileage/price
// columns.
func testCSV(seed int64, n int) string {
	rng := rand.New(rand.NewSource(seed))
	models := []string{"prius", "civic", "model3", "leaf"}
	var b strings.Builder
	b.WriteString("Model,Color,Mileage,Price\n")
	for i := 0; i < n; i++ {
		m := rng.Intn(len(models))
		color := []string{"red", "blue", "black"}[rng.Intn(3)]
		mileage := 10000 + rng.Float64()*90000
		price := 35000 - 5000*float64(m) - 0.1*mileage + rng.NormFloat64()*1000
		fmt.Fprintf(&b, "%s,%s,%.2f,%.2f\n", models[m], color, mileage, price)
	}
	return b.String()
}

// do runs one request through the handler and decodes a JSON response.
func do(t *testing.T, h http.Handler, method, path, contentType string, body []byte, out any) int {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding response %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func doJSON(t *testing.T, h http.Handler, method, path string, reqBody, out any) int {
	t.Helper()
	b, err := json.Marshal(reqBody)
	if err != nil {
		t.Fatal(err)
	}
	return do(t, h, method, path, "application/json", b, out)
}

func TestEndToEndFlow(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	csv := testCSV(1, 400)

	// Upload a dataset.
	var dsInfo datasetInfo
	if code := do(t, h, "POST", "/v1/datasets?name=cars", "text/csv", []byte(csv), &dsInfo); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	if dsInfo.Rows != 400 || len(dsInfo.Columns) != 4 {
		t.Fatalf("upload info: %+v", dsInfo)
	}

	// Register a constraint.
	var scInfo constraintInfo
	code := doJSON(t, h, "POST", "/v1/constraints",
		map[string]string{"constraint": "Model _||_ Price @ 0.05"}, &scInfo)
	if code != http.StatusCreated || scInfo.ID == 0 {
		t.Fatalf("constraint add: status %d, %+v", code, scInfo)
	}

	// Check via the service.
	var res checkResultJSON
	code = doJSON(t, h, "POST", "/v1/check",
		map[string]any{"dataset": "cars", "constraint_id": scInfo.ID}, &res)
	if code != http.StatusOK {
		t.Fatalf("check: status %d (%+v)", code, res)
	}

	// The service must agree exactly with the library.
	rel, err := relation.ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	a := sc.Approximate{SC: sc.MustParse("Model _||_ Price"), Alpha: 0.05}
	want, err := detect.Check(rel, a, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated != want.Violated || res.Test.P != want.Test.P {
		t.Errorf("service check (violated=%v p=%v) != library (violated=%v p=%v)",
			res.Violated, res.Test.P, want.Violated, want.Test.P)
	}
	if !res.Violated {
		t.Error("Model _||_ Price should be violated on correlated data")
	}

	// Drill down to the top-k contributing rows.
	var drill struct {
		Rows        []int      `json:"rows"`
		Records     [][]string `json:"records"`
		InitialStat float64    `json:"initial_stat"`
	}
	code = doJSON(t, h, "POST", "/v1/drilldown",
		map[string]any{"dataset": "cars", "constraint_id": scInfo.ID, "k": 5}, &drill)
	if code != http.StatusOK {
		t.Fatalf("drilldown: status %d", code)
	}
	if len(drill.Rows) != 5 || len(drill.Records) != 5 {
		t.Fatalf("drilldown rows: %+v", drill.Rows)
	}
	wantDrill, err := drilldown.TopK(rel, a.SC, 5, drilldown.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range wantDrill.Rows {
		if drill.Rows[i] != r {
			t.Errorf("drilldown row %d: got %d, want %d", i, drill.Rows[i], r)
		}
	}

	// Metrics show the traffic.
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	metricsText := rec.Body.String()
	for _, want := range []string{
		`scoded_requests_total{route="POST /v1/datasets",code="201"} 1`,
		`scoded_requests_total{route="POST /v1/check",code="200"} 1`,
		`scoded_request_duration_seconds_count{route="POST /v1/drilldown"} 1`,
		"scoded_uptime_seconds",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics missing %q in:\n%s", want, metricsText)
		}
	}

	// Health reflects the registries.
	var health struct {
		Status      string `json:"status"`
		Datasets    int    `json:"datasets"`
		Constraints int    `json:"constraints"`
	}
	if code := do(t, h, "GET", "/healthz", "", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health.Status != "ok" || health.Datasets != 1 || health.Constraints != 1 {
		t.Errorf("healthz: %+v", health)
	}
}

func TestDatasetRegistry(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	csv := testCSV(2, 50)

	if code := do(t, h, "POST", "/v1/datasets", "text/csv", []byte(csv), nil); code != http.StatusBadRequest {
		t.Errorf("missing name: status %d", code)
	}
	if code := do(t, h, "POST", "/v1/datasets?name=d1", "text/csv", []byte(csv), nil); code != http.StatusCreated {
		t.Errorf("upload: status %d", code)
	}
	if code := do(t, h, "POST", "/v1/datasets?name=d1", "text/csv", []byte(csv), nil); code != http.StatusOK {
		t.Errorf("re-upload under an existing name should replace (200): status %d", code)
	}
	if code := do(t, h, "POST", "/v1/datasets?name=bad", "text/csv", []byte("a,b\n1\n"), nil); code != http.StatusBadRequest {
		t.Errorf("ragged CSV: status %d", code)
	}

	var list struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	if code := do(t, h, "GET", "/v1/datasets", "", nil, &list); code != http.StatusOK || len(list.Datasets) != 1 {
		t.Errorf("list: status %d, %+v", code, list)
	}
	if code := do(t, h, "GET", "/v1/datasets/d1", "", nil, nil); code != http.StatusOK {
		t.Errorf("get: status %d", code)
	}
	if code := do(t, h, "GET", "/v1/datasets/nope", "", nil, nil); code != http.StatusNotFound {
		t.Errorf("get missing: status %d", code)
	}
	if code := do(t, h, "DELETE", "/v1/datasets/d1", "", nil, nil); code != http.StatusOK {
		t.Errorf("delete: status %d", code)
	}
	if code := do(t, h, "DELETE", "/v1/datasets/d1", "", nil, nil); code != http.StatusNotFound {
		t.Errorf("delete twice: status %d", code)
	}
}

func TestUploadSizeLimit(t *testing.T) {
	s := New(Options{MaxUploadBytes: 64})
	h := s.Handler()
	csv := testCSV(3, 100)
	if code := do(t, h, "POST", "/v1/datasets?name=big", "text/csv", []byte(csv), nil); code != http.StatusBadRequest {
		t.Errorf("oversized upload: status %d, want 400", code)
	}
}

func TestConstraintRegistry(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	if code := doJSON(t, h, "POST", "/v1/constraints", map[string]string{"constraint": "garbage"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad constraint: status %d", code)
	}
	var info constraintInfo
	if code := doJSON(t, h, "POST", "/v1/constraints",
		map[string]string{"constraint": "A ~||~ B | C @ 0.3"}, &info); code != http.StatusCreated {
		t.Fatalf("add: status %d", code)
	}
	if info.Constraint != "A ~||~ B | C" || info.Alpha != 0.3 || !info.Dependence {
		t.Errorf("constraint info: %+v", info)
	}
	var list struct {
		Constraints []constraintInfo `json:"constraints"`
	}
	if code := do(t, h, "GET", "/v1/constraints", "", nil, &list); code != http.StatusOK || len(list.Constraints) != 1 {
		t.Errorf("list: %d, %+v", code, list)
	}
	if code := do(t, h, "GET", fmt.Sprintf("/v1/constraints/%d", info.ID), "", nil, nil); code != http.StatusOK {
		t.Errorf("get: status %d", code)
	}
	if code := do(t, h, "GET", "/v1/constraints/999", "", nil, nil); code != http.StatusNotFound {
		t.Errorf("get missing: status %d", code)
	}
	if code := do(t, h, "GET", "/v1/constraints/xyz", "", nil, nil); code != http.StatusBadRequest {
		t.Errorf("get bad id: status %d", code)
	}
	if code := do(t, h, "DELETE", fmt.Sprintf("/v1/constraints/%d", info.ID), "", nil, nil); code != http.StatusOK {
		t.Errorf("delete: status %d", code)
	}
	if code := do(t, h, "DELETE", fmt.Sprintf("/v1/constraints/%d", info.ID), "", nil, nil); code != http.StatusNotFound {
		t.Errorf("delete twice: status %d", code)
	}
}

func TestCheckAllEndpoint(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	do(t, h, "POST", "/v1/datasets?name=cars", "text/csv", []byte(testCSV(4, 400)), nil)

	// Register a family: one real dependence, one noise pair, one broken.
	for _, text := range []string{
		"Model _||_ Price @ 0.05",
		"Color _||_ Mileage @ 0.05",
		"Model _||_ DoesNotExist @ 0.05",
	} {
		if code := doJSON(t, h, "POST", "/v1/constraints", map[string]string{"constraint": text}, nil); code != http.StatusCreated {
			t.Fatalf("registering %q: status %d", text, code)
		}
	}

	var resp struct {
		Results  []checkResultJSON `json:"results"`
		Checked  int               `json:"checked"`
		Violated int               `json:"violated"`
		Errored  int               `json:"errored"`
	}
	code := doJSON(t, h, "POST", "/v1/checkall",
		map[string]any{"dataset": "cars", "fdr": 0.05}, &resp)
	if code != http.StatusOK {
		t.Fatalf("checkall: status %d", code)
	}
	if len(resp.Results) != 3 || resp.Checked != 2 || resp.Errored != 1 {
		t.Fatalf("checkall summary: %+v", resp)
	}
	if !resp.Results[0].Violated {
		t.Errorf("Model _||_ Price should be violated: %+v", resp.Results[0])
	}
	if resp.Results[2].Error == "" {
		t.Errorf("broken constraint should report its error: %+v", resp.Results[2])
	}

	// Inline constraint texts work too.
	code = doJSON(t, h, "POST", "/v1/checkall", map[string]any{
		"dataset":     "cars",
		"constraints": []string{"Model _||_ Price @ 0.05", "Color _||_ Mileage @ 0.05"},
		"workers":     4,
	}, &resp)
	if code != http.StatusOK || len(resp.Results) != 2 {
		t.Fatalf("inline checkall: status %d, %+v", code, resp)
	}

	// Unknown dataset 404s; bad FDR 400s.
	if code := doJSON(t, h, "POST", "/v1/checkall", map[string]any{"dataset": "nope"}, nil); code != http.StatusNotFound {
		t.Errorf("unknown dataset: status %d", code)
	}
	if code := doJSON(t, h, "POST", "/v1/checkall", map[string]any{"dataset": "cars", "fdr": 7.0}, nil); code != http.StatusBadRequest {
		t.Errorf("bad FDR: status %d", code)
	}
}

func TestCheckEndpointErrors(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	do(t, h, "POST", "/v1/datasets?name=cars", "text/csv", []byte(testCSV(5, 60)), nil)

	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"missing dataset", map[string]any{"constraint": "Model _||_ Price"}, http.StatusNotFound},
		{"missing constraint", map[string]any{"dataset": "cars"}, http.StatusBadRequest},
		{"both constraint forms", map[string]any{"dataset": "cars", "constraint": "A _||_ B", "constraint_id": 1}, http.StatusBadRequest},
		{"unknown method", map[string]any{"dataset": "cars", "constraint": "Model _||_ Price", "method": "anova"}, http.StatusBadRequest},
		{"missing column", map[string]any{"dataset": "cars", "constraint": "Model _||_ Nope"}, http.StatusUnprocessableEntity},
		{"kendall on categorical", map[string]any{"dataset": "cars", "constraint": "Model _||_ Price", "method": "kendall"}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		if code := doJSON(t, h, "POST", "/v1/check", tc.body, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}
	// Unknown JSON fields are rejected.
	if code := doJSON(t, h, "POST", "/v1/check", map[string]any{"dataset": "cars", "wat": 1}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", code)
	}
}

func TestMonitorFlow(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	// Categorical monitor, windowed.
	var mon monitorInfo
	code := doJSON(t, h, "POST", "/v1/monitors",
		map[string]any{"kind": "categorical", "alpha": 0.05, "window": 64}, &mon)
	if code != http.StatusCreated || mon.ID == 0 {
		t.Fatalf("create: status %d, %+v", code, mon)
	}

	// Feed correlated pairs; mirror them into a library monitor.
	ref, _ := stream.NewCategoricalMonitor(0.05, false, 64)
	rng := rand.New(rand.NewSource(6))
	var xs, ys []string
	for i := 0; i < 100; i++ {
		x := fmt.Sprintf("x%d", rng.Intn(3))
		y := x // perfectly dependent
		if rng.Intn(10) == 0 {
			y = fmt.Sprintf("x%d", rng.Intn(3))
		}
		xs = append(xs, x)
		ys = append(ys, y)
		ref.Insert(x, y)
	}
	code = doJSON(t, h, "POST", fmt.Sprintf("/v1/monitors/%d/observe", mon.ID),
		map[string]any{"x": xs, "y": ys}, &mon)
	if code != http.StatusOK {
		t.Fatalf("observe: status %d", code)
	}
	if mon.N != 64 || mon.Observed != 100 {
		t.Errorf("after observe: %+v", mon)
	}

	var verdict struct {
		Statistic float64 `json:"statistic"`
		P         float64 `json:"p"`
		N         int     `json:"n"`
		Violated  bool    `json:"violated"`
	}
	code = do(t, h, "GET", fmt.Sprintf("/v1/monitors/%d/verdict", mon.ID), "", nil, &verdict)
	if code != http.StatusOK {
		t.Fatalf("verdict: status %d", code)
	}
	want := ref.Verdict()
	if verdict.Statistic != want.Statistic || verdict.P != want.P || verdict.Violated != want.Violated {
		t.Errorf("service verdict %+v != library %+v", verdict, want)
	}
	if !verdict.Violated {
		t.Error("dependent stream should violate the ISC")
	}

	// Type mismatch is rejected.
	if code := doJSON(t, h, "POST", fmt.Sprintf("/v1/monitors/%d/observe", mon.ID),
		map[string]any{"x": []float64{1}, "y": []float64{2}}, nil); code != http.StatusBadRequest {
		t.Errorf("numeric batch into categorical monitor: status %d", code)
	}
	if code := doJSON(t, h, "POST", fmt.Sprintf("/v1/monitors/%d/observe", mon.ID),
		map[string]any{"x": []string{"a", "b"}, "y": []string{"c"}}, nil); code != http.StatusBadRequest {
		t.Errorf("length mismatch: status %d", code)
	}

	// Numeric monitor round trip.
	var nmon monitorInfo
	doJSON(t, h, "POST", "/v1/monitors", map[string]any{"kind": "numeric"}, &nmon)
	nums := make([]float64, 80)
	nums2 := make([]float64, 80)
	for i := range nums {
		nums[i] = float64(i)
		nums2[i] = float64(i) + rng.NormFloat64()
	}
	if code := doJSON(t, h, "POST", fmt.Sprintf("/v1/monitors/%d/observe", nmon.ID),
		map[string]any{"x": nums, "y": nums2}, nil); code != http.StatusOK {
		t.Fatalf("numeric observe: status %d", code)
	}
	code = do(t, h, "GET", fmt.Sprintf("/v1/monitors/%d/verdict", nmon.ID), "", nil, &verdict)
	if code != http.StatusOK || !verdict.Violated {
		t.Errorf("monotone numeric stream should violate: status %d, %+v", code, verdict)
	}

	// List and delete.
	var list struct {
		Monitors []monitorInfo `json:"monitors"`
	}
	if code := do(t, h, "GET", "/v1/monitors", "", nil, &list); code != http.StatusOK || len(list.Monitors) != 2 {
		t.Errorf("list: %d, %+v", code, list)
	}
	if code := do(t, h, "DELETE", fmt.Sprintf("/v1/monitors/%d", mon.ID), "", nil, nil); code != http.StatusOK {
		t.Errorf("delete: status %d", code)
	}
	if code := do(t, h, "GET", fmt.Sprintf("/v1/monitors/%d/verdict", mon.ID), "", nil, nil); code != http.StatusNotFound {
		t.Errorf("verdict after delete: status %d", code)
	}
	if code := doJSON(t, h, "POST", "/v1/monitors", map[string]any{"kind": "fourier"}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown kind: status %d", code)
	}
}

// TestConcurrentTraffic hammers the service from many goroutines; run
// under -race it proves the registry and metrics locking.
func TestConcurrentTraffic(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	do(t, h, "POST", "/v1/datasets?name=cars", "text/csv", []byte(testCSV(7, 200)), nil)
	var mon monitorInfo
	doJSON(t, h, "POST", "/v1/monitors", map[string]any{"kind": "numeric", "window": 50}, &mon)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				req := httptest.NewRequest("POST", "/v1/check",
					strings.NewReader(`{"dataset":"cars","constraint":"Model _||_ Price @ 0.05"}`))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("check: status %d", rec.Code)
					return
				}
				body := fmt.Sprintf(`{"x":[%d.5],"y":[%d.25]}`, i, (i*7+g)%13)
				req = httptest.NewRequest("POST", fmt.Sprintf("/v1/monitors/%d/observe", mon.ID),
					strings.NewReader(body))
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("observe: status %d", rec.Code)
					return
				}
				req = httptest.NewRequest("GET", "/metrics", nil)
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
		}(g)
	}
	wg.Wait()
	if got := s.metrics.snapshotCount("POST /v1/check"); got != 80 {
		t.Errorf("check request count: %d, want 80", got)
	}
}

// TestDrilldownMultiConstraint exercises the family form of /v1/drilldown:
// the pooled ranking must match the library's MultiTopK exactly, be
// independent of the worker count, and reject ambiguous request bodies.
func TestDrilldownMultiConstraint(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	csv := testCSV(5, 300)
	if code := do(t, h, "POST", "/v1/datasets?name=cars", "text/csv", []byte(csv), nil); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	texts := []string{"Model _||_ Price", "Mileage ~||~ Price"}

	rel, err := relation.ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	family := []sc.SC{sc.MustParse(texts[0]), sc.MustParse(texts[1])}
	want, err := drilldown.MultiTopK(rel, family, 12, drilldown.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{0, 1, 4} {
		var got struct {
			Constraints []string   `json:"constraints"`
			Rows        []int      `json:"rows"`
			Records     [][]string `json:"records"`
		}
		code := doJSON(t, h, "POST", "/v1/drilldown",
			map[string]any{"dataset": "cars", "constraints": texts, "k": 12, "workers": workers}, &got)
		if code != http.StatusOK {
			t.Fatalf("workers=%d: status %d", workers, code)
		}
		if len(got.Constraints) != 2 || got.Constraints[0] != texts[0] {
			t.Errorf("workers=%d: constraints %v", workers, got.Constraints)
		}
		if len(got.Rows) != 12 || len(got.Records) != 12 {
			t.Fatalf("workers=%d: pooled %d rows, %d records", workers, len(got.Rows), len(got.Records))
		}
		for i, r := range want {
			if got.Rows[i] != r {
				t.Errorf("workers=%d: pooled row %d: got %d, want %d", workers, i, got.Rows[i], r)
			}
		}
	}

	// Registered ids drill the same family.
	var ids []int
	for _, text := range texts {
		var info constraintInfo
		if code := doJSON(t, h, "POST", "/v1/constraints",
			map[string]string{"constraint": text}, &info); code != http.StatusCreated {
			t.Fatalf("constraint add: status %d", code)
		}
		ids = append(ids, info.ID)
	}
	var byID struct {
		Rows []int `json:"rows"`
	}
	code := doJSON(t, h, "POST", "/v1/drilldown",
		map[string]any{"dataset": "cars", "constraint_ids": ids, "k": 12}, &byID)
	if code != http.StatusOK {
		t.Fatalf("by id: status %d", code)
	}
	for i, r := range want {
		if byID.Rows[i] != r {
			t.Errorf("by id: pooled row %d: got %d, want %d", i, byID.Rows[i], r)
		}
	}

	// Ambiguous and invalid bodies are client errors.
	for name, body := range map[string]map[string]any{
		"single+family": {"dataset": "cars", "constraint": texts[0], "constraints": texts, "k": 5},
		"texts+ids":     {"dataset": "cars", "constraints": texts, "constraint_ids": ids, "k": 5},
	} {
		if code := doJSON(t, h, "POST", "/v1/drilldown", body, &struct{}{}); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}

	// A failing family member surfaces its wrapped, attributed error.
	var apiErr struct {
		Error string `json:"error"`
	}
	code = doJSON(t, h, "POST", "/v1/drilldown",
		map[string]any{"dataset": "cars", "constraints": []string{texts[0], "Model _||_ Bogus"}, "k": 5}, &apiErr)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("bad family member: status %d", code)
	}
	if !strings.Contains(apiErr.Error, "Model _||_ Bogus") || !strings.Contains(apiErr.Error, "Bogus") {
		t.Errorf("error %q should name the failing constraint", apiErr.Error)
	}
}

// TestDrilldownSingleWorkers: a single-constraint drill takes its strata's
// greedy shares over the request's workers, so a τ and a G K^c drill over
// four strata answer the same bytes with one worker, with four, and with
// the server's default.
func TestDrilldownSingleWorkers(t *testing.T) {
	h := New(Options{}).Handler()
	if code := do(t, h, "POST", "/v1/datasets?name=cars", "text/csv", []byte(testCSV(9, 300)), nil); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	for _, body := range []map[string]any{
		{"dataset": "cars", "constraint": "Mileage _||_ Price | Model", "k": 20, "strategy": "kc", "method": "tau"},
		{"dataset": "cars", "constraint": "Color _||_ Price | Model", "k": 20, "strategy": "kc", "method": "g"},
	} {
		var want []byte
		for _, workers := range []int{1, 4, 0} {
			body["workers"] = workers
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/drilldown", bytes.NewReader(b)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s workers %d: status %d: %s", body["constraint"], workers, rec.Code, rec.Body)
			}
			if want == nil {
				want = rec.Body.Bytes()
			} else if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s workers %d: response differs from one worker's:\n%s\nvs\n%s", body["constraint"], workers, rec.Body, want)
			}
		}
	}
}

// TestDrilldownNaN422: a CSV "NaN" parses as a number, but a tau drill over
// it is a client error naming the column, not rows or a crashed request.
func TestDrilldownNaN422(t *testing.T) {
	h := New(Options{}).Handler()
	csv := "Mileage,Price\n1,2\n2,1\nNaN,3\n4,3\n3,5\n5,4\n"
	if code := do(t, h, "POST", "/v1/datasets?name=nan", "text/csv", []byte(csv), nil); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	code := doJSON(t, h, "POST", "/v1/drilldown",
		map[string]any{"dataset": "nan", "constraint": "Price _||_ Mileage", "k": 2}, &apiErr)
	if code != http.StatusUnprocessableEntity || !strings.Contains(apiErr.Error, `"Mileage"`) {
		t.Errorf("status %d, error %q; want 422 naming Mileage", code, apiErr.Error)
	}
}
