// Package server implements scoded-serve: a long-running HTTP service that
// exposes SCODED's detection workflows over registered datasets and
// constraints. It is the deployment shape the paper's lineage assumes — a
// resident engine (compare HoloClean-style violation-detection services)
// rather than one-shot batch scripts.
//
// The service holds three registries behind read-write locks:
//
//   - datasets: immutable relations uploaded as CSV, keyed by name;
//   - constraints: approximate SCs parsed from the "A _||_ B | C @ alpha"
//     text form, keyed by numeric id;
//   - monitors: stateful streaming monitors (categorical or numeric,
//     optionally windowed) fed by observe batches.
//
// Detection endpoints run the library's Check / CheckAll / TopK on a
// dataset-constraint pair; /v1/checkall fans the family out over the
// bounded worker pool inside detect.CheckAll. Every route is wrapped in a
// metrics middleware feeding the plain-text /metrics endpoint; /healthz
// reports liveness and registry sizes. Everything is stdlib-only.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"scoded/internal/engine"
	"scoded/internal/kernel"
	"scoded/internal/sc"
	"scoded/internal/store"
)

// Options configures a Server.
type Options struct {
	// MaxUploadBytes caps the size of a CSV dataset upload; defaults to
	// 32 MiB.
	MaxUploadBytes int64
	// Workers bounds the worker pools of checkall and drill-down (a
	// family's constraints, a drill's strata) for requests that name no
	// workers; 0 means GOMAXPROCS.
	Workers int
	// RequestTimeout bounds every request's context server-side: a check,
	// drill-down or observe batch that outlives it is cancelled through the
	// engine and answered with 504 Gateway Timeout. Zero means no
	// server-side deadline (client disconnection still cancels).
	RequestTimeout time.Duration
	// Store, when non-nil, makes every registry mutation durable: dataset
	// uploads, appends, constraints and monitors are written through to it,
	// and LoadStore restores them on boot. Nil keeps the historical
	// in-memory-only behavior.
	Store *store.Store
	// IngestQueue bounds the record batches admitted per monitor on the
	// streaming ingest endpoint; a full queue answers 429 with Retry-After.
	// Zero means 16.
	IngestQueue int
	// AlertWebhook is the server-wide fallback alert sink URL, used by
	// monitors created without their own webhook. Empty disables alerting
	// for those monitors.
	AlertWebhook string
	// AlertRetries bounds webhook delivery attempts per alert (default 3);
	// AlertBackoff is the initial retry delay, doubled per attempt
	// (default 100ms).
	AlertRetries int
	AlertBackoff time.Duration
	// ResidentBytes caps the total estimated bytes of materialized
	// relations held in memory. Store-backed datasets above the budget are
	// lazily materialized on first touch and evicted least-recently-used
	// once unreferenced; a /v1/checkall against a dataset larger than the
	// whole budget streams segment-at-a-time instead of materializing,
	// whatever its method. Zero means unbounded — every dataset stays
	// resident once touched.
	ResidentBytes int64
	// ScanWindowRows bounds the rows decoded per chunk on the streaming
	// detection path, splitting oversized segments into windows. Zero
	// streams whole segments.
	ScanWindowRows int
}

func (o Options) withDefaults() Options {
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 32 << 20
	}
	return o
}

// Server is the scoded-serve application state: the three registries, the
// metrics collector, and the route table. Create one with New and mount
// Handler on an http.Server.
type Server struct {
	opts  Options
	store *store.Store

	res *residents

	mu          sync.RWMutex
	datasets    map[string]*dataset
	constraints map[int]sc.Approximate
	nextSC      int
	monitors    map[int]*monitorEntry
	nextMonitor int

	metrics *metrics
	handler http.Handler

	// Alert sink lifecycle (see ingest.go): deliveries run under alertCtx,
	// bounded by alertSem, awaited by Close through alertWG.
	//scoded:lint-ignore ctxfirst alert deliveries outlive the triggering request; this context is the sink's lifetime, cancelled by Close
	alertCtx    context.Context
	alertCancel context.CancelFunc
	alertWG     sync.WaitGroup
	alertSem    chan struct{}
	alertClient *http.Client
}

// New creates a Server with empty registries. When opts.Store is set, call
// LoadStore before serving to restore durable state.
func New(opts Options) *Server {
	s := &Server{
		opts:        opts.withDefaults(),
		store:       opts.Store,
		res:         newResidents(opts.ResidentBytes),
		datasets:    make(map[string]*dataset),
		constraints: make(map[int]sc.Approximate),
		monitors:    make(map[int]*monitorEntry),
		metrics:     newMetrics(time.Now()),
		alertSem:    make(chan struct{}, alertSemSize),
		alertClient: &http.Client{Timeout: 10 * time.Second},
	}
	s.alertCtx, s.alertCancel = context.WithCancel(context.Background())
	s.metrics.extra = func(w io.Writer) {
		s.writeKernelMetrics(w)
		s.writeResidentMetrics(w)
		s.writeStoreMetrics(w)
		s.writeStreamMetrics(w, time.Now())
	}
	s.handler = s.buildRoutes()
	return s
}

// Handler returns the service's root handler, with every route wrapped in
// the metrics middleware.
func (s *Server) Handler() http.Handler { return s.handler }

func (s *Server) buildRoutes() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.metrics.wrap(pattern, s.withTimeout(h)))
	}
	route("POST /v1/datasets", s.handleDatasetUpload)
	route("GET /v1/datasets", s.handleDatasetList)
	route("GET /v1/datasets/{name}", s.handleDatasetGet)
	route("POST /v1/datasets/{name}/rows", s.handleDatasetAppend)
	route("DELETE /v1/datasets/{name}", s.handleDatasetDelete)

	route("POST /v1/constraints", s.handleConstraintAdd)
	route("GET /v1/constraints", s.handleConstraintList)
	route("GET /v1/constraints/{id}", s.handleConstraintGet)
	route("DELETE /v1/constraints/{id}", s.handleConstraintDelete)

	route("POST /v1/check", s.handleCheck)
	route("POST /v1/checkall", s.handleCheckAll)
	route("POST /v1/drilldown", s.handleDrilldown)

	route("POST /v1/monitors", s.handleMonitorCreate)
	route("GET /v1/monitors", s.handleMonitorList)
	route("POST /v1/monitors/{id}/observe", s.handleMonitorObserve)
	route("POST /v1/monitors/{id}/records", s.handleMonitorRecords)
	route("GET /v1/monitors/{id}/verdict", s.handleMonitorVerdict)
	route("DELETE /v1/monitors/{id}", s.handleMonitorDelete)

	route("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", http.HandlerFunc(s.metrics.serveHTTP))
	return mux
}

// withTimeout bounds the request context by Options.RequestTimeout. The
// handlers thread r.Context() into every computation, so both the server
// deadline and a client disconnect cancel through the same path.
func (s *Server) withTimeout(h http.Handler) http.Handler {
	if s.opts.RequestTimeout <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := s.requestContext(r)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// requestContext derives the context.Context one request computes under:
// r.Context() — cancelled when the client disconnects — bounded by the
// server-side Options.RequestTimeout.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	return engine.WithTimeout(r.Context(), s.opts.RequestTimeout)
}

// errStatus maps a computation error to an HTTP status: a server-side
// deadline is a gateway timeout, a client cancellation is answered 503
// (the client is usually gone, but middleware still records the code), and
// anything else is the request's fault.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

// handleHealthz reports liveness, uptime, and registry sizes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	nd, nc, nm := len(s.datasets), len(s.constraints), len(s.monitors)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
		"datasets":       nd,
		"constraints":    nc,
		"monitors":       nm,
	})
}

// writeJSON writes v as a JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes a JSON error envelope {"error": msg}.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeJSON strictly decodes the request body into v.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %v", err)
	}
	return nil
}

// writeKernelMetrics renders the per-dataset kernel cache counters for the
// /metrics endpoint. Cold datasets have no cache and are skipped.
func (s *Server) writeKernelMetrics(w io.Writer) {
	type entry struct {
		name  string
		stats kernel.Stats
	}
	s.mu.RLock()
	entries := make([]entry, 0, len(s.datasets))
	for name, d := range s.datasets {
		if d.cache == nil {
			continue
		}
		entries = append(entries, entry{name: name, stats: d.cache.Stats()})
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	fmt.Fprintf(w, "# HELP scoded_kernel_cache_hits_total Kernel cache lookups served from a memoized entry, by dataset.\n")
	fmt.Fprintf(w, "# TYPE scoded_kernel_cache_hits_total counter\n")
	for _, e := range entries {
		fmt.Fprintf(w, "scoded_kernel_cache_hits_total{dataset=%q} %d\n", e.name, e.stats.Hits)
	}
	fmt.Fprintf(w, "# HELP scoded_kernel_cache_misses_total Kernel cache lookups that computed a new entry, by dataset.\n")
	fmt.Fprintf(w, "# TYPE scoded_kernel_cache_misses_total counter\n")
	for _, e := range entries {
		fmt.Fprintf(w, "scoded_kernel_cache_misses_total{dataset=%q} %d\n", e.name, e.stats.Misses)
	}
	fmt.Fprintf(w, "# HELP scoded_kernel_cache_entries Memoized kernel artifacts held, by dataset.\n")
	fmt.Fprintf(w, "# TYPE scoded_kernel_cache_entries gauge\n")
	for _, e := range entries {
		fmt.Fprintf(w, "scoded_kernel_cache_entries{dataset=%q} %d\n", e.name, e.stats.Entries)
	}
}
