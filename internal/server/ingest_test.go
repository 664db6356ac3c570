package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// streamServer builds a server with one numeric monitor (id 1).
func streamServer(t *testing.T, opts Options, monitor map[string]any) *Server {
	t.Helper()
	s := New(opts)
	t.Cleanup(s.Close)
	if monitor == nil {
		monitor = map[string]any{"kind": "numeric", "alpha": 0.05, "window": 64}
	}
	var info monitorInfo
	if code := doJSON(t, s.Handler(), "POST", "/v1/monitors", monitor, &info); code != http.StatusCreated {
		t.Fatalf("monitor create: status %d", code)
	}
	if info.ID != 1 {
		t.Fatalf("monitor id %d, want 1", info.ID)
	}
	return s
}

func recordsBody(t *testing.T, xs, ys []float64) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"x": xs, "y": ys})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecordsEndpointInsertsAndReports: the happy path — records land,
// the response reports the inserted count and the monitor state, and a
// non-finite batch is refused whole with 422.
func TestRecordsEndpointInsertsAndReports(t *testing.T) {
	s := streamServer(t, Options{}, nil)
	h := s.Handler()
	var resp struct {
		Inserted int         `json:"inserted"`
		Monitor  monitorInfo `json:"monitor"`
	}
	code := do(t, h, "POST", "/v1/monitors/1/records", "application/json",
		recordsBody(t, []float64{1, 2, 3}, []float64{4, 5, 6}), &resp)
	if code != http.StatusOK {
		t.Fatalf("records: status %d", code)
	}
	if resp.Inserted != 3 || resp.Monitor.N != 3 || resp.Monitor.Observed != 3 {
		t.Fatalf("records response: %+v", resp)
	}

	// NaN is rejected before any record lands: all-or-nothing.
	var errResp map[string]string
	bad, err := json.Marshal(map[string]any{"x": []any{1.0, "NaN-as-string"}, "y": []any{2.0, 3.0}})
	if err != nil {
		t.Fatal(err)
	}
	if code := do(t, h, "POST", "/v1/monitors/1/records", "application/json", bad, &errResp); code != http.StatusBadRequest {
		t.Fatalf("non-numeric batch: status %d", code)
	}
	if code := do(t, h, "POST", "/v1/monitors/1/records", "application/json",
		recordsBody(t, []float64{7}, []float64{8}), &resp); code != http.StatusOK {
		t.Fatalf("records after rejected batch: status %d", code)
	}
	if resp.Monitor.Observed != 4 {
		t.Fatalf("observed %d after rejected batch, want 4", resp.Monitor.Observed)
	}
}

// TestRecordsBackpressure429: a full admission queue answers 429 with a
// Retry-After header, counts the rejection, and recovers once a slot
// frees.
func TestRecordsBackpressure429(t *testing.T) {
	s := streamServer(t, Options{IngestQueue: 2}, nil)
	h := s.Handler()
	m := s.monitors[1]
	// Occupy both slots, as two stuck in-flight batches would.
	m.slots <- struct{}{}
	m.slots <- struct{}{}

	req := httptest.NewRequest("POST", "/v1/monitors/1/records",
		bytes.NewReader(recordsBody(t, []float64{1}, []float64{2})))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	if ra := rec.Result().Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	m.stats.mu.Lock()
	rejected := m.stats.rejected
	m.stats.mu.Unlock()
	if rejected != 1 {
		t.Fatalf("rejected counter %d, want 1", rejected)
	}

	// Freeing a slot readmits traffic.
	<-m.slots
	var resp struct {
		Inserted int `json:"inserted"`
	}
	if code := do(t, h, "POST", "/v1/monitors/1/records", "application/json",
		recordsBody(t, []float64{1}, []float64{2}), &resp); code != http.StatusOK || resp.Inserted != 1 {
		t.Fatalf("after slot freed: status %d inserted %d", code, resp.Inserted)
	}

	// The rejection and queue depth are visible on /metrics.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`scoded_stream_ingest_rejected_total{monitor="1"} 1`,
		`scoded_stream_queue_depth{monitor="1"} 1`,
		`scoded_stream_watermark{monitor="1"} 1`,
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRecordsConcurrentIngestAndVerdict hammers one monitor with parallel
// record batches and verdict reads; run under -race this pins the locking
// discipline of the incremental kernels behind the ingest path.
func TestRecordsConcurrentIngestAndVerdict(t *testing.T) {
	s := streamServer(t, Options{IngestQueue: 64}, map[string]any{
		"kind": "numeric", "alpha": 0.05, "window": 128,
	})
	h := s.Handler()
	const writers, readers, batches = 4, 4, 25
	var wg sync.WaitGroup
	var inserted atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				xs := make([]float64, 8)
				ys := make([]float64, 8)
				for i := range xs {
					xs[i] = float64((seed*batches+b)*8 + i)
					ys[i] = xs[i] * 2
				}
				var resp struct {
					Inserted int `json:"inserted"`
				}
				if code := do(t, h, "POST", "/v1/monitors/1/records", "application/json",
					recordsBody(t, xs, ys), &resp); code != http.StatusOK {
					t.Errorf("writer %d: status %d", seed, code)
					return
				}
				inserted.Add(int64(resp.Inserted))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches*2; i++ {
				var v struct {
					N int `json:"n"`
				}
				if code := doJSON(t, h, "GET", "/v1/monitors/1/verdict", nil, &v); code != http.StatusOK {
					t.Errorf("verdict: status %d", code)
					return
				}
				if v.N > 128 {
					t.Errorf("window overflow: n=%d", v.N)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := inserted.Load(); got != writers*batches*8 {
		t.Fatalf("inserted %d records, want %d", got, writers*batches*8)
	}
	var v struct {
		N        int   `json:"n"`
		Observed int64 `json:"observed"`
	}
	doJSON(t, h, "GET", "/v1/monitors/1/verdict", nil, &v)
	if v.N != 128 || v.Observed != writers*batches*8 {
		t.Fatalf("final verdict n=%d observed=%d", v.N, v.Observed)
	}
}

// TestRecordsClientDisconnectMidBatch: a client that vanishes mid-batch
// stops the insert loop, the monitor keeps exactly the inserted prefix,
// and no goroutine survives the request.
func TestRecordsClientDisconnectMidBatch(t *testing.T) {
	before := runtime.NumGoroutine()
	s := streamServer(t, Options{}, map[string]any{
		"kind": "numeric", "alpha": 0.05, "window": 50000,
	})
	ts := httptest.NewServer(s.Handler())

	const total = 400000
	xs := make([]float64, total)
	ys := make([]float64, total)
	for i := range xs {
		xs[i] = float64(i % 997)
		ys[i] = float64((i * 31) % 1009)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/monitors/1/records",
		bytes.NewReader(recordsBody(t, xs, ys)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	m := s.monitors[1]
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Let the batch get going, then vanish. Decoding the body takes a
	// load-dependent while, so wait for the insert loop itself: applyBatch
	// holds m.mu for the whole InsertBatch, and nothing else takes it here.
	waitUntil := time.Now().Add(15 * time.Second)
	for m.mu.TryLock() {
		m.mu.Unlock()
		select {
		case err := <-done:
			t.Fatalf("records batch ended (err %v) before the insert loop was seen", err)
		default:
		}
		if time.Now().After(waitUntil) {
			t.Fatal("records batch never reached the insert loop")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("disconnected request still got a full response")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("disconnected records batch did not return")
	}

	// The monitor retains the inserted prefix (the insert loop stopped),
	// not the whole batch.
	m.mu.Lock()
	observed := m.observed
	m.mu.Unlock()
	if observed == 0 {
		t.Skip("batch cancelled before any insert; timing too tight to assert a prefix")
	}
	if observed >= total {
		t.Fatalf("observed %d of %d: cancellation did not stop the batch", observed, total)
	}

	ts.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// violatedBatch returns a perfectly concordant batch that drives an ISC
// monitor's p-value to ~0, flipping its verdict to violated.
func violatedBatch(n int) (xs, ys []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i)
	}
	return xs, ys
}

// TestAlertWebhookFiredOnFlip: the sink fires exactly once per flip to
// violated (not per batch while violated), and the payload matches the
// frozen golden byte-for-byte.
func TestAlertWebhookFiredOnFlip(t *testing.T) {
	var hits atomic.Int64
	var gotBody atomic.Value
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b := new(bytes.Buffer)
		if _, err := b.ReadFrom(r.Body); err == nil {
			gotBody.Store(b.Bytes())
		}
		hits.Add(1)
	}))
	defer hook.Close()

	s := streamServer(t, Options{AlertBackoff: time.Millisecond}, map[string]any{
		"kind": "numeric", "alpha": 0.05, "window": 0, "webhook": hook.URL,
	})
	h := s.Handler()
	xs, ys := violatedBatch(100)
	var resp struct {
		Inserted int `json:"inserted"`
	}
	if code := do(t, h, "POST", "/v1/monitors/1/records", "application/json",
		recordsBody(t, xs, ys), &resp); code != http.StatusOK {
		t.Fatalf("records: status %d", code)
	}
	waitForAlerts(t, s.monitors[1], func(st *streamStats) bool { return st.alertsFired == 1 })

	// Still violated: another batch must NOT re-alert.
	if code := do(t, h, "POST", "/v1/monitors/1/records", "application/json",
		recordsBody(t, []float64{1000}, []float64{1000}), &resp); code != http.StatusOK {
		t.Fatalf("second batch: status %d", code)
	}
	s.Close() // drain any in-flight delivery before counting
	if hits.Load() != 1 {
		t.Fatalf("webhook hit %d times, want 1 (alert on flip only)", hits.Load())
	}

	payload, _ := gotBody.Load().([]byte)
	golden := filepath.Join("testdata", "alert_payload.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, payload, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/server -run AlertWebhookFired -update` to create it): %v", err)
	}
	if !bytes.Equal(payload, want) {
		t.Fatalf("alert payload drifted from golden:\ngot:  %s\nwant: %s", payload, want)
	}
}

// TestObserveAppliesBatchLikeRecords: /observe runs the same batch path as
// /records, so a violating batch fires exactly one alert and advances the
// watermark by the batch size, and the next /records batch compares
// against the violated baseline instead of alerting again.
func TestObserveAppliesBatchLikeRecords(t *testing.T) {
	var hits atomic.Int64
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer hook.Close()

	s := streamServer(t, Options{AlertBackoff: time.Millisecond}, map[string]any{
		"kind": "numeric", "alpha": 0.05, "window": 0, "webhook": hook.URL,
	})
	h := s.Handler()
	xs, ys := violatedBatch(100)
	var mon monitorInfo
	if code := do(t, h, "POST", "/v1/monitors/1/observe", "application/json",
		recordsBody(t, xs, ys), &mon); code != http.StatusOK {
		t.Fatalf("observe: status %d", code)
	}
	if mon.Observed != 100 {
		t.Fatalf("observe answered observed=%d, want 100", mon.Observed)
	}
	m := s.monitors[1]
	m.stats.mu.Lock()
	watermark := m.stats.watermark
	m.stats.mu.Unlock()
	if watermark != 100 {
		t.Fatalf("watermark %d after a 100-record observe, want 100", watermark)
	}
	waitForAlerts(t, m, func(st *streamStats) bool { return st.alertsFired == 1 })
	if code := do(t, h, "POST", "/v1/monitors/1/records", "application/json",
		recordsBody(t, []float64{1000}, []float64{1000}), nil); code != http.StatusOK {
		t.Fatalf("records: status %d", code)
	}
	s.Close() // drain any in-flight delivery before counting
	if hits.Load() != 1 {
		t.Fatalf("webhook hit %d times, want 1", hits.Load())
	}
}

// TestAlertWebhookRetryExhaustion: a sink that always fails is retried
// with backoff, then counted as a delivery failure — never blocking the
// ingest path.
func TestAlertWebhookRetryExhaustion(t *testing.T) {
	var hits atomic.Int64
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer hook.Close()

	s := streamServer(t, Options{
		AlertWebhook: hook.URL, // server-wide fallback: monitor has no webhook of its own
		AlertRetries: 2,
		AlertBackoff: time.Millisecond,
	}, map[string]any{"kind": "numeric", "alpha": 0.05})
	h := s.Handler()
	xs, ys := violatedBatch(64)
	var resp struct {
		Inserted int `json:"inserted"`
	}
	if code := do(t, h, "POST", "/v1/monitors/1/records", "application/json",
		recordsBody(t, xs, ys), &resp); code != http.StatusOK {
		t.Fatalf("records: status %d", code)
	}
	waitForAlerts(t, s.monitors[1], func(st *streamStats) bool { return st.alertFailures == 1 })
	if hits.Load() != 2 {
		t.Fatalf("webhook attempted %d times, want 2 (AlertRetries)", hits.Load())
	}

	// The failure and the engine's alert stage show up on /metrics.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`scoded_stream_alert_failures_total{monitor="1"} 1`,
		`scoded_engine_items_total{stage="alert"} 1`,
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func waitForAlerts(t *testing.T, m *monitorEntry, ok func(*streamStats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.stats.mu.Lock()
		done := ok(&m.stats)
		m.stats.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			m.stats.mu.Lock()
			defer m.stats.mu.Unlock()
			t.Fatalf("alert counters never converged: fired=%d dropped=%d failures=%d",
				m.stats.alertsFired, m.stats.alertsDropped, m.stats.alertFailures)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamMetricsGolden freezes the streaming gauge names and format:
// renaming a gauge is a monitoring-breaking change and must show up as a
// golden diff.
func TestStreamMetricsGolden(t *testing.T) {
	s := New(Options{})
	t.Cleanup(s.Close)
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for id := 1; id <= 2; id++ {
		m := &monitorEntry{id: id, kind: "numeric", alpha: 0.05, window: 100}
		m.slots = make(chan struct{}, 16)
		m.stats.watermark = int64(1000 * id)
		m.stats.lastApplied = base.Add(-time.Duration(id) * time.Second)
		m.stats.rate.value = float64(2500 * id)
		m.stats.rejected = int64(id - 1)
		m.stats.alertsFired = int64(id)
		m.stats.alertsDropped = 0
		m.stats.alertFailures = int64(2 - id)
		s.monitors[id] = m
	}
	s.monitors[2].slots <- struct{}{} // one admitted batch in flight

	var buf bytes.Buffer
	s.writeStreamMetrics(&buf, base)
	golden := filepath.Join("testdata", "stream_metrics.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/server -run StreamMetricsGolden -update` to create it): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stream metrics drifted from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestServeCloseIsIdempotent: Close twice (deferred and explicit in
// scoded-serve) must not panic or hang.
func TestServeCloseIsIdempotent(t *testing.T) {
	s := New(Options{})
	s.Close()
	s.Close()
}

// TestMonitorWebhookPersists: the webhook survives a restart through the
// durable definition.
func TestMonitorWebhookPersists(t *testing.T) {
	dir := t.TempDir()
	s := newDurableServer(t, dir)
	var info monitorInfo
	if code := doJSON(t, s.Handler(), "POST", "/v1/monitors", map[string]any{
		"kind": "numeric", "alpha": 0.05, "window": 8, "webhook": "http://127.0.0.1:1/alert",
	}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	s.Close()

	s2 := newDurableServer(t, dir)
	t.Cleanup(s2.Close)
	m, ok := s2.monitors[info.ID]
	if !ok {
		t.Fatalf("monitor %d not restored", info.ID)
	}
	if m.webhook != "http://127.0.0.1:1/alert" {
		t.Fatalf("restored webhook %q", m.webhook)
	}
	if m.slots == nil {
		t.Fatal("restored monitor has no ingest slots armed")
	}
}
