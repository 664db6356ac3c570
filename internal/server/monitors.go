package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"scoded/internal/stream"
)

// monitorEntry is one registered streaming monitor. Observe batches mutate
// the underlying monitor, so each entry carries its own mutex: two clients
// feeding the same monitor serialize on it, while different monitors
// proceed in parallel.
type monitorEntry struct {
	id         int
	kind       string // "categorical" or "numeric"
	alpha      float64
	dependence bool
	window     int
	dataset    string // optional dataset binding; "" means unbound
	webhook    string // optional per-monitor alert sink URL

	mu           sync.Mutex
	cat          *stream.CategoricalMonitor
	num          *stream.NumericMonitor
	observed     int64 // total records ever observed
	lastViolated bool  // verdict baseline for alert flip detection

	// slots is the ingest admission channel (see ingest.go); stats the
	// streaming telemetry. Both are armed by initIngest.
	slots chan struct{}
	stats streamStats
}

// verdictLocked evaluates whichever monitor the entry wraps. Callers hold
// m.mu.
func (m *monitorEntry) verdictLocked() stream.Verdict {
	if m.cat != nil {
		return m.cat.Verdict()
	}
	return m.num.Verdict()
}

type monitorInfo struct {
	ID         int     `json:"id"`
	Kind       string  `json:"kind"`
	Alpha      float64 `json:"alpha"`
	Dependence bool    `json:"dependence"`
	Window     int     `json:"window,omitempty"`
	Dataset    string  `json:"dataset,omitempty"`
	Observed   int64   `json:"observed"`
	N          int     `json:"n"`
}

func (m *monitorEntry) info() monitorInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	if m.cat != nil {
		n = m.cat.N()
	} else {
		n = m.num.N()
	}
	return monitorInfo{
		ID: m.id, Kind: m.kind, Alpha: m.alpha, Dependence: m.dependence,
		Window: m.window, Dataset: m.dataset, Observed: m.observed, N: n,
	}
}

// dropBoundMonitorsLocked deletes every monitor bound to the named dataset,
// along with its durable observation log. Called when the dataset is
// replaced or deleted, so a monitor's verdict can never mix observations
// derived from different versions of the data; the manifest's monitor list
// needs no separate cleanup because both callers rewrite or remove the
// manifest itself. Callers hold s.mu.
func (s *Server) dropBoundMonitorsLocked(name string) {
	for id, m := range s.monitors {
		if m.dataset == name {
			delete(s.monitors, id)
			if s.store != nil {
				// Best-effort: a leftover log is unreachable (no definition
				// references it) and harmless.
				_ = s.store.DropLog(id)
			}
		}
	}
}

// handleMonitorCreate registers a streaming monitor:
// {"kind": "categorical"|"numeric", "alpha": 0.05, "dependence": true,
// "window": 1000, "dataset": "name"}. A zero window means unbounded. The
// optional dataset field binds the monitor to a registered dataset:
// replacing or deleting that dataset deletes the monitor.
func (s *Server) handleMonitorCreate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Kind       string  `json:"kind"`
		Alpha      float64 `json:"alpha"`
		Dependence bool    `json:"dependence,omitempty"`
		Window     int     `json:"window,omitempty"`
		Dataset    string  `json:"dataset,omitempty"`
		Webhook    string  `json:"webhook,omitempty"`
	}
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	//scoded:lint-ignore floatcmp exact zero is the JSON zero value meaning the field was absent
	if req.Alpha == 0 {
		req.Alpha = 0.05
	}
	entry := &monitorEntry{
		kind: req.Kind, alpha: req.Alpha, dependence: req.Dependence,
		window: req.Window, dataset: req.Dataset, webhook: req.Webhook,
	}
	var err error
	switch req.Kind {
	case "categorical":
		entry.cat, err = stream.NewCategoricalMonitor(req.Alpha, req.Dependence, req.Window)
	case "numeric":
		entry.num, err = stream.NewNumericMonitor(req.Alpha, req.Dependence, req.Window)
	default:
		err = fmt.Errorf("unknown monitor kind %q (want categorical or numeric)", req.Kind)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	entry.initIngest(s.opts.IngestQueue)
	s.mu.Lock()
	// Validate the binding under the same lock that registers the monitor,
	// so a concurrent dataset replacement cannot slip between check and add.
	if req.Dataset != "" {
		if _, ok := s.datasets[req.Dataset]; !ok {
			s.mu.Unlock()
			writeError(w, http.StatusNotFound, "no dataset %q", req.Dataset)
			return
		}
	}
	s.nextMonitor++
	entry.id = s.nextMonitor
	s.monitors[entry.id] = entry
	// Persist the definition before acknowledging: the id counter lives in
	// the registry, a bound definition in its dataset's manifest.
	err = s.persistRegistryLocked()
	if err == nil && entry.dataset != "" {
		err = s.persistBoundMonitorsLocked(entry.dataset)
	}
	if err != nil {
		delete(s.monitors, entry.id)
		s.mu.Unlock()
		writeError(w, http.StatusInternalServerError, "persisting monitor: %v", err)
		return
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, entry.info())
}

// handleMonitorList lists monitors sorted by id.
func (s *Server) handleMonitorList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	entries := make([]*monitorEntry, 0, len(s.monitors))
	for _, m := range s.monitors {
		entries = append(entries, m)
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	infos := make([]monitorInfo, len(entries))
	for i, m := range entries {
		infos[i] = m.info()
	}
	writeJSON(w, http.StatusOK, map[string]any{"monitors": infos})
}

func (s *Server) monitorByID(w http.ResponseWriter, r *http.Request) (*monitorEntry, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid monitor id %q", r.PathValue("id"))
		return nil, false
	}
	s.mu.RLock()
	m, ok := s.monitors[id]
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no monitor %d", id)
		return nil, false
	}
	return m, true
}

// handleMonitorObserve records a batch of (x, y) observations:
// {"x": [...], "y": [...]} — strings for a categorical monitor, numbers
// for a numeric one. The two arrays must have equal length. It applies
// the batch as handleMonitorRecords does, without admission control, and
// answers with the monitor.
func (s *Server) handleMonitorObserve(w http.ResponseWriter, r *http.Request) {
	m, ok := s.monitorByID(w, r)
	if !ok {
		return
	}
	req, ok := decodeBatch(w, r)
	if !ok {
		return
	}
	if _, ok := s.applyBatch(w, r, m, req); !ok {
		return
	}
	writeJSON(w, http.StatusOK, m.info())
}

func asStrings(vals []any, field string) ([]string, error) {
	out := make([]string, len(vals))
	for i, v := range vals {
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("%s[%d]: want string for a categorical monitor, got %T", field, i, v)
		}
		out[i] = s
	}
	return out, nil
}

func asFloats(vals []any, field string) ([]float64, error) {
	out := make([]float64, len(vals))
	for i, v := range vals {
		f, ok := v.(float64)
		if !ok {
			return nil, fmt.Errorf("%s[%d]: want number for a numeric monitor, got %T", field, i, v)
		}
		out[i] = f
	}
	return out, nil
}

// handleMonitorVerdict evaluates the monitor's constraint on its current
// window.
func (s *Server) handleMonitorVerdict(w http.ResponseWriter, r *http.Request) {
	m, ok := s.monitorByID(w, r)
	if !ok {
		return
	}
	m.mu.Lock()
	v := m.verdictLocked()
	observed := m.observed
	m.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"id":        m.id,
		"statistic": v.Statistic,
		"p":         v.P,
		"df":        v.DF,
		"n":         v.N,
		"observed":  observed,
		"violated":  v.Violated,
	})
}

// handleMonitorDelete removes a monitor.
func (s *Server) handleMonitorDelete(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid monitor id %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	m, ok := s.monitors[id]
	delete(s.monitors, id)
	if ok && s.store != nil {
		var perr error
		if m.dataset != "" {
			perr = s.persistBoundMonitorsLocked(m.dataset)
		} else {
			perr = s.persistRegistryLocked()
		}
		if perr == nil {
			perr = s.store.DropLog(id)
		}
		if perr != nil {
			s.mu.Unlock()
			writeError(w, http.StatusInternalServerError, "persisting monitor delete: %v", perr)
			return
		}
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no monitor %d", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"deleted": id})
}
