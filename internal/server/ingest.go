package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"scoded/internal/engine"
)

// This file is the high-throughput streaming ingest layer:
// POST /v1/monitors/{id}/records with explicit backpressure, per-monitor
// streaming gauges on /metrics, and a webhook alert sink fired when a
// monitor's verdict flips to violated.
//
// Backpressure is admission control, not an async queue: each monitor owns
// a bounded slot channel (Options.IngestQueue). A records request acquires
// a slot without blocking — a full channel answers 429 with Retry-After so
// producers shed load at the edge — and admitted batches then serialize on
// the monitor mutex, insert, and persist before the ack. That keeps the
// durable-log append strictly before the acknowledgement (a restart can
// never lose an acked record) and keeps per-monitor arrival order exactly
// the order verdicts see.

// defaultIngestQueue is the per-monitor admitted-batch bound when
// Options.IngestQueue is zero.
const defaultIngestQueue = 16

// defaultAlertRetries and defaultAlertBackoff shape webhook delivery when
// the Options fields are zero.
const defaultAlertRetries = 3
const defaultAlertBackoff = 100 * time.Millisecond

// alertSemSize bounds concurrently in-flight alert deliveries; beyond it
// alerts are counted as dropped rather than queued without bound.
const alertSemSize = 8

// streamStats is one monitor's ingest telemetry, updated on every applied
// batch and rendered by writeStreamMetrics. It has its own mutex so the
// /metrics scrape never contends with an insert holding the monitor mutex.
type streamStats struct {
	mu          sync.Mutex
	watermark   int64     // records applied over the monitor's lifetime
	lastApplied time.Time // wall time of the most recent applied batch
	rate        ewma      // smoothed records/sec
	rejected    int64     // batches refused with 429

	alertsFired   int64
	alertsDropped int64
	alertFailures int64
}

// ewma smooths an event rate with an exponential window: each observation
// of n records after a gap dt folds the instantaneous rate n/dt in with
// weight 1 − exp(−dt/τ). τ of ~10s tracks sustained throughput while
// absorbing batch-boundary jitter.
type ewma struct {
	value   float64
	pending float64
	last    time.Time
}

const ewmaTau = 10.0 // seconds

func (e *ewma) observe(n float64, now time.Time) {
	if e.last.IsZero() {
		e.last = now
		e.pending = n
		return
	}
	dt := now.Sub(e.last).Seconds()
	if dt <= 0 {
		// Same-instant batches fold into the next interval.
		e.pending += n
		return
	}
	inst := (n + e.pending) / dt
	alpha := 1 - math.Exp(-dt/ewmaTau)
	e.value += alpha * (inst - e.value)
	e.pending = 0
	e.last = now
}

// initIngest arms the entry's ingest state: the admission slots and the
// verdict baseline for flip detection. Called at create and re-arm time
// (after any log replay), so a monitor restored mid-violation does not
// re-alert on its first quiet batch.
func (m *monitorEntry) initIngest(queue int) {
	if queue <= 0 {
		queue = defaultIngestQueue
	}
	m.slots = make(chan struct{}, queue)
	m.mu.Lock()
	if m.cat != nil {
		m.lastViolated = m.cat.Verdict().Violated
	} else {
		m.lastViolated = m.num.Verdict().Violated
	}
	m.mu.Unlock()
}

// handleMonitorRecords is the admission-controlled twin of
// handleMonitorObserve: same {"x": [...], "y": [...]} body, applied by the
// same applyBatch, but a full queue answers 429 Too Many Requests with
// Retry-After, and the acknowledgement carries the inserted count.
func (s *Server) handleMonitorRecords(w http.ResponseWriter, r *http.Request) {
	m, ok := s.monitorByID(w, r)
	if !ok {
		return
	}
	req, ok := decodeBatch(w, r)
	if !ok {
		return
	}
	select {
	case m.slots <- struct{}{}:
		defer func() { <-m.slots }()
	default:
		m.stats.mu.Lock()
		m.stats.rejected++
		m.stats.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"monitor %d ingest queue full (%d in flight); retry later", m.id, cap(m.slots))
		return
	}
	n, ok := s.applyBatch(w, r, m, req)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"inserted": n,
		"monitor":  m.info(),
	})
}

// batchRequest is the body of both ingest routes: strings for a
// categorical monitor, numbers for a numeric one, in arrays of equal
// length.
type batchRequest struct {
	X []any `json:"x"`
	Y []any `json:"y"`
}

// decodeBatch decodes and length-checks a batch body, answering 400
// itself when it is malformed.
func decodeBatch(w http.ResponseWriter, r *http.Request) (batchRequest, bool) {
	var req batchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return req, false
	}
	if len(req.X) != len(req.Y) {
		writeError(w, http.StatusBadRequest, "x has %d values, y has %d", len(req.X), len(req.Y))
		return req, false
	}
	return req, true
}

// applyBatch applies one batch to m for both ingest routes: it inserts the
// records, checks the verdict for a flip to violated, advances the stream
// statistics, persists the inserted records before the acknowledgement
// and fires the alert. Batches stream through InsertBatch, so a
// disconnected client or an expired deadline stops a large batch mid-way;
// the inserted prefix still counts, and is what gets logged. applyBatch
// answers every error itself and returns the inserted count and whether
// the caller should write its success body.
func (s *Server) applyBatch(w http.ResponseWriter, r *http.Request, m *monitorEntry, req batchRequest) (int, bool) {
	var batchErr error
	var n int
	var xs, ys []string
	var xf, yf []float64
	var flipped bool
	if m.kind == "categorical" {
		var err error
		if xs, err = asStrings(req.X, "x"); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return 0, false
		}
		if ys, err = asStrings(req.Y, "y"); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return 0, false
		}
		m.mu.Lock()
		n, batchErr = m.cat.InsertBatch(r.Context(), xs, ys)
		m.observed += int64(n)
		flipped = m.noteVerdictLocked()
		m.mu.Unlock()
		xs, ys = xs[:n], ys[:n]
	} else {
		var err error
		if xf, err = asFloats(req.X, "x"); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return 0, false
		}
		if yf, err = asFloats(req.Y, "y"); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return 0, false
		}
		m.mu.Lock()
		n, batchErr = m.num.InsertBatch(r.Context(), xf, yf)
		m.observed += int64(n)
		flipped = m.noteVerdictLocked()
		m.mu.Unlock()
		xf, yf = xf[:n], yf[:n]
	}
	if n > 0 {
		m.stats.mu.Lock()
		m.stats.watermark += int64(n)
		now := time.Now()
		m.stats.lastApplied = now
		m.stats.rate.observe(float64(n), now)
		m.stats.mu.Unlock()
		// Append-before-ack: the durable log write precedes the response.
		if perr := s.persistObservations(m, xs, ys, xf, yf); perr != nil {
			writeError(w, http.StatusInternalServerError, "persisting observations: %v", perr)
			return n, false
		}
	}
	if flipped {
		s.fireAlert(m)
	}
	if batchErr != nil {
		writeError(w, errStatus(batchErr), "inserted %d of %d records: %v", n, len(req.X), batchErr)
		return n, false
	}
	return n, true
}

// noteVerdictLocked re-evaluates the monitor's verdict and reports whether
// it just flipped from holding to violated — the alert edge. Callers hold
// m.mu.
func (m *monitorEntry) noteVerdictLocked() bool {
	var violated bool
	if m.cat != nil {
		violated = m.cat.Verdict().Violated
	} else {
		violated = m.num.Verdict().Violated
	}
	flipped := violated && !m.lastViolated
	m.lastViolated = violated
	return flipped
}

// alertPayload is the webhook body; its field set and order are frozen by
// the alert golden test.
type alertPayload struct {
	Monitor    int     `json:"monitor"`
	Kind       string  `json:"kind"`
	Dataset    string  `json:"dataset,omitempty"`
	Alpha      float64 `json:"alpha"`
	Dependence bool    `json:"dependence"`
	Statistic  float64 `json:"statistic"`
	P          float64 `json:"p"`
	DF         int     `json:"df"`
	N          int     `json:"n"`
	Observed   int64   `json:"observed"`
	Violated   bool    `json:"violated"`
}

// buildAlert snapshots the monitor state into the webhook payload.
func (m *monitorEntry) buildAlert() alertPayload {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := alertPayload{
		Monitor: m.id, Kind: m.kind, Dataset: m.dataset,
		Alpha: m.alpha, Dependence: m.dependence, Observed: m.observed,
	}
	var v = m.verdictLocked()
	p.Statistic, p.P, p.DF, p.N, p.Violated = v.Statistic, v.P, v.DF, v.N, v.Violated
	return p
}

// fireAlert delivers the monitor's current state to its webhook (or the
// server-wide fallback) asynchronously. Delivery runs through the
// cancellable engine under the "alert" metrics stage with bounded retries
// and backoff; when the in-flight bound is hit the alert is dropped and
// counted, never queued without bound.
func (s *Server) fireAlert(m *monitorEntry) {
	url := m.webhook
	if url == "" {
		url = s.opts.AlertWebhook
	}
	if url == "" {
		return
	}
	select {
	case s.alertSem <- struct{}{}:
	default:
		m.stats.mu.Lock()
		m.stats.alertsDropped++
		m.stats.mu.Unlock()
		return
	}
	payload := m.buildAlert()
	s.alertWG.Add(1)
	go func() {
		defer s.alertWG.Done()
		defer func() { <-s.alertSem }()
		errs := engine.Run(s.alertCtx, 1, engine.Options{
			Workers: 1,
			Hooks:   s.metrics.engineHooks("alert"),
		}, func(ctx context.Context, _ int) error {
			return s.deliverAlert(ctx, url, payload)
		})
		m.stats.mu.Lock()
		if len(errs) > 0 && errs[0] != nil {
			m.stats.alertFailures++
		} else {
			m.stats.alertsFired++
		}
		m.stats.mu.Unlock()
	}()
}

// deliverAlert POSTs the payload, retrying transient failures with
// exponential backoff. A 2xx response is success; anything else after the
// final attempt is a delivery failure.
func (s *Server) deliverAlert(ctx context.Context, url string, payload alertPayload) error {
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	retries := s.opts.AlertRetries
	if retries <= 0 {
		retries = defaultAlertRetries
	}
	backoff := s.opts.AlertBackoff
	if backoff <= 0 {
		backoff = defaultAlertBackoff
	}
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := s.alertClient.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return nil
		}
		lastErr = fmt.Errorf("webhook %s answered %d", url, resp.StatusCode)
	}
	return fmt.Errorf("alert delivery failed after %d attempts: %w", retries, lastErr)
}

// Close stops the alert sink: pending deliveries are cancelled through the
// engine and awaited. The HTTP routes stay functional (alerts fired after
// Close are cancelled immediately), so Close ordering relative to server
// shutdown is not delicate.
func (s *Server) Close() {
	s.alertCancel()
	s.alertWG.Wait()
}

// writeStreamMetrics renders the per-monitor streaming gauges. now is a
// parameter so the golden test can render deterministically.
func (s *Server) writeStreamMetrics(w io.Writer, now time.Time) {
	type row struct {
		id                       int
		watermark                int64
		lag                      float64
		depth                    int
		rate                     float64
		rejected                 int64
		fired, dropped, failures int64
	}
	s.mu.RLock()
	rows := make([]row, 0, len(s.monitors))
	for _, m := range s.monitors {
		m.stats.mu.Lock()
		r := row{
			id: m.id, watermark: m.stats.watermark, rejected: m.stats.rejected,
			rate: m.stats.rate.value, fired: m.stats.alertsFired,
			dropped: m.stats.alertsDropped, failures: m.stats.alertFailures,
		}
		if !m.stats.lastApplied.IsZero() {
			r.lag = now.Sub(m.stats.lastApplied).Seconds()
		}
		m.stats.mu.Unlock()
		if m.slots != nil {
			r.depth = len(m.slots)
		}
		rows = append(rows, r)
	}
	s.mu.RUnlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })

	fmt.Fprintf(w, "# HELP scoded_stream_watermark Records applied to the monitor over its lifetime.\n")
	fmt.Fprintf(w, "# TYPE scoded_stream_watermark gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "scoded_stream_watermark{monitor=\"%d\"} %d\n", r.id, r.watermark)
	}
	fmt.Fprintf(w, "# HELP scoded_stream_lag_seconds Time since the monitor last applied a batch.\n")
	fmt.Fprintf(w, "# TYPE scoded_stream_lag_seconds gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "scoded_stream_lag_seconds{monitor=\"%d\"} %g\n", r.id, r.lag)
	}
	fmt.Fprintf(w, "# HELP scoded_stream_queue_depth Ingest batches currently admitted (in flight).\n")
	fmt.Fprintf(w, "# TYPE scoded_stream_queue_depth gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "scoded_stream_queue_depth{monitor=\"%d\"} %d\n", r.id, r.depth)
	}
	fmt.Fprintf(w, "# HELP scoded_stream_records_per_second Smoothed ingest rate.\n")
	fmt.Fprintf(w, "# TYPE scoded_stream_records_per_second gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "scoded_stream_records_per_second{monitor=\"%d\"} %g\n", r.id, r.rate)
	}
	fmt.Fprintf(w, "# HELP scoded_stream_ingest_rejected_total Record batches refused with 429 backpressure.\n")
	fmt.Fprintf(w, "# TYPE scoded_stream_ingest_rejected_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "scoded_stream_ingest_rejected_total{monitor=\"%d\"} %d\n", r.id, r.rejected)
	}
	fmt.Fprintf(w, "# HELP scoded_stream_alerts_fired_total Webhook alerts delivered.\n")
	fmt.Fprintf(w, "# TYPE scoded_stream_alerts_fired_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "scoded_stream_alerts_fired_total{monitor=\"%d\"} %d\n", r.id, r.fired)
	}
	fmt.Fprintf(w, "# HELP scoded_stream_alerts_dropped_total Alerts dropped at the in-flight bound.\n")
	fmt.Fprintf(w, "# TYPE scoded_stream_alerts_dropped_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "scoded_stream_alerts_dropped_total{monitor=\"%d\"} %d\n", r.id, r.dropped)
	}
	fmt.Fprintf(w, "# HELP scoded_stream_alert_failures_total Alert deliveries that exhausted retries.\n")
	fmt.Fprintf(w, "# TYPE scoded_stream_alert_failures_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "scoded_stream_alert_failures_total{monitor=\"%d\"} %d\n", r.id, r.failures)
	}
}
