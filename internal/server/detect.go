package server

import (
	"errors"
	"fmt"
	"net/http"
	"sort"

	"scoded/internal/detect"
	"scoded/internal/drilldown"
	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
)

// checkParams are the detection knobs shared by /v1/check and /v1/checkall.
type checkParams struct {
	// Method names a detect.Method: auto, g-test, kendall, pearson,
	// spearman, exact-g, exact-kendall. Empty means auto.
	Method string `json:"method,omitempty"`
	// Bins is the quantile bin count for discretizing numeric columns.
	Bins int `json:"bins,omitempty"`
	// MinStratumSize drops smaller conditioning strata.
	MinStratumSize int `json:"min_stratum_size,omitempty"`
	// AutoExact re-runs approximate tests with their Monte-Carlo variant.
	AutoExact bool `json:"auto_exact,omitempty"`
}

func (p checkParams) options() (detect.Options, error) {
	m, err := parseMethod(p.Method)
	if err != nil {
		return detect.Options{}, err
	}
	return detect.Options{
		Method:         m,
		Bins:           p.Bins,
		MinStratumSize: p.MinStratumSize,
		AutoExact:      p.AutoExact,
	}, nil
}

func parseMethod(name string) (detect.Method, error) {
	switch name {
	case "", "auto":
		return detect.Auto, nil
	case "g", "g-test":
		return detect.G, nil
	case "kendall":
		return detect.Kendall, nil
	case "pearson":
		return detect.Pearson, nil
	case "spearman":
		return detect.Spearman, nil
	case "exact-g":
		return detect.ExactG, nil
	case "exact-kendall":
		return detect.ExactKendall, nil
	default:
		return 0, fmt.Errorf("unknown method %q", name)
	}
}

// resolveConstraint returns the constraint for a request that may carry
// either inline text or a registry id.
func (s *Server) resolveConstraint(text string, id int) (sc.Approximate, error) {
	switch {
	case text != "" && id != 0:
		return sc.Approximate{}, fmt.Errorf("give either constraint text or constraint_id, not both")
	case text != "":
		return sc.ParseApproximate(text)
	case id != 0:
		s.mu.RLock()
		a, ok := s.constraints[id]
		s.mu.RUnlock()
		if !ok {
			return sc.Approximate{}, fmt.Errorf("no constraint %d", id)
		}
		return a, nil
	default:
		return sc.Approximate{}, fmt.Errorf("missing constraint (text) or constraint_id")
	}
}

// testJSON renders a stats.TestResult.
type testJSON struct {
	Statistic   float64 `json:"statistic"`
	DF          int     `json:"df,omitempty"`
	P           float64 `json:"p"`
	N           int     `json:"n"`
	Approximate bool    `json:"approximate,omitempty"`
}

func testJSONOf(t stats.TestResult) testJSON {
	return testJSON{Statistic: t.Statistic, DF: t.DF, P: t.P, N: t.N, Approximate: t.Approximate}
}

// checkResultJSON renders a detect.Result.
type checkResultJSON struct {
	Constraint string            `json:"constraint"`
	Alpha      float64           `json:"alpha"`
	Method     string            `json:"method,omitempty"`
	Test       testJSON          `json:"test"`
	Violated   bool              `json:"violated"`
	Strata     []stratumJSON     `json:"strata,omitempty"`
	Leaves     []checkResultJSON `json:"leaves,omitempty"`
	Error      string            `json:"error,omitempty"`
}

type stratumJSON struct {
	Key     string   `json:"key"`
	Size    int      `json:"size"`
	Test    testJSON `json:"test"`
	Skipped bool     `json:"skipped,omitempty"`
}

func checkResultJSONOf(r detect.Result) checkResultJSON {
	out := checkResultJSON{
		Constraint: r.Constraint.SC.String(),
		Alpha:      r.Constraint.Alpha,
		Violated:   r.Violated,
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
		return out
	}
	out.Method = r.Method.String()
	out.Test = testJSONOf(r.Test)
	for _, st := range r.Strata {
		out.Strata = append(out.Strata, stratumJSON{
			Key: st.Key, Size: st.Size, Test: testJSONOf(st.Test), Skipped: st.Skipped,
		})
	}
	for _, leaf := range r.Leaves {
		out.Leaves = append(out.Leaves, checkResultJSONOf(leaf))
	}
	return out
}

// acquireForRequest resolves and (if cold) materializes a dataset for one
// request, writing the error response itself on failure. On success the
// caller must invoke the returned release once done with the relation.
func (s *Server) acquireForRequest(w http.ResponseWriter, r *http.Request, name string) (*relation.Relation, *kernel.Cache, func(), bool) {
	rel, cache, release, err := s.acquireDataset(r.Context(), name)
	switch {
	case err == nil:
		return rel, cache, release, true
	case errors.Is(err, errNoDataset):
		writeError(w, http.StatusNotFound, "no dataset %q", name)
	case r.Context().Err() != nil:
		writeError(w, errStatus(r.Context().Err()), "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
	return nil, nil, nil, false
}

// handleCheck runs one constraint against one dataset.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Dataset      string `json:"dataset"`
		Constraint   string `json:"constraint,omitempty"`
		ConstraintID int    `json:"constraint_id,omitempty"`
		checkParams
	}
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rel, cache, release, ok := s.acquireForRequest(w, r, req.Dataset)
	if !ok {
		return
	}
	defer release()
	a, err := s.resolveConstraint(req.Constraint, req.ConstraintID)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts, err := req.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts.Cache = cache
	res, err := detect.CheckContext(r.Context(), rel, a, opts)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, checkResultJSONOf(res))
}

// handleCheckAll runs a constraint family against one dataset with
// optional BH-FDR control, fanned out over detect.CheckAll's worker pool.
// An empty constraint_ids list means every registered constraint.
//
// The statistics source follows from what the server observes, never from
// the request: a cold store-backed dataset whose on-disk size exceeds the
// whole resident budget is checked by detect.CheckAllStream — one scan of
// its segments, never materializing the rows — whatever the method;
// everything else materializes (lazily) and runs the resident pool path.
// The results are bit-identical either way.
func (s *Server) handleCheckAll(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Dataset       string   `json:"dataset"`
		ConstraintIDs []int    `json:"constraint_ids,omitempty"`
		Constraints   []string `json:"constraints,omitempty"`
		FDR           float64  `json:"fdr,omitempty"`
		Workers       int      `json:"workers,omitempty"`
		checkParams
	}
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.RLock()
	d, ok := s.datasets[req.Dataset]
	var stored, resident bool
	var diskBytes int64
	if ok {
		stored, resident, diskBytes = d.stored, d.rel != nil, d.diskBytes
	}
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no dataset %q", req.Dataset)
		return
	}
	var family []sc.Approximate
	switch {
	case len(req.Constraints) > 0 && len(req.ConstraintIDs) > 0:
		writeError(w, http.StatusBadRequest, "give either constraints or constraint_ids, not both")
		return
	case len(req.Constraints) > 0:
		for _, text := range req.Constraints {
			a, err := sc.ParseApproximate(text)
			if err != nil {
				writeError(w, http.StatusBadRequest, "parsing constraint %q: %v", text, err)
				return
			}
			family = append(family, a)
		}
	case len(req.ConstraintIDs) > 0:
		for _, id := range req.ConstraintIDs {
			a, err := s.resolveConstraint("", id)
			if err != nil {
				writeError(w, http.StatusNotFound, "%v", err)
				return
			}
			family = append(family, a)
		}
	default:
		// The whole registry, in id order.
		s.mu.RLock()
		ids := make([]int, 0, len(s.constraints))
		for id := range s.constraints {
			ids = append(ids, id)
		}
		s.mu.RUnlock()
		sort.Ints(ids)
		for _, id := range ids {
			if a, err := s.resolveConstraint("", id); err == nil {
				family = append(family, a)
			}
		}
	}
	opts, err := req.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.opts.Workers
	}
	batch := detect.BatchOptions{
		Options: opts,
		FDR:     req.FDR,
		Workers: workers,
		Hooks:   s.metrics.engineHooks("checkall"),
	}
	if stored && !resident && s.res.budget > 0 && diskBytes > s.res.budget {
		s.checkAllStream(w, r, req.Dataset, family, batch)
		return
	}
	rel, cache, release, ok := s.acquireForRequest(w, r, req.Dataset)
	if !ok {
		return
	}
	defer release()
	batch.Cache = cache
	results, err := detect.CheckAllContext(r.Context(), rel, family, batch)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeCheckAllResults(w, r, results)
}

// checkAllStream runs the family through detect.CheckAllStream over store
// segment chunks, bounded by Options.ScanWindowRows, without materializing
// the dataset. The family is one scan of the manifest read here, so an
// append racing the request cannot split it, and then runs on the same
// pool, FDR pass and hooks as the resident family.
func (s *Server) checkAllStream(w http.ResponseWriter, r *http.Request, name string, family []sc.Approximate, batch detect.BatchOptions) {
	src, err := kernel.StoreSource(s.store, name, s.opts.ScanWindowRows)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reading manifest for %q: %v", name, err)
		return
	}
	streamer, err := kernel.NewStreamer(src)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	results, err := detect.CheckAllStream(r.Context(), streamer, family, batch)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeCheckAllResults(w, r, results)
}

// writeCheckAllResults renders the checkall response envelope, identical
// for the resident and streamed paths (the smoke test diffs the bytes).
func writeCheckAllResults(w http.ResponseWriter, r *http.Request, results []detect.Result) {
	// A request that ran out of its context mid-batch holds partial
	// results; answer with the timeout status rather than a 200 that looks
	// like a complete family.
	if err := r.Context().Err(); err != nil {
		writeError(w, errStatus(err), "checkall aborted: %v", err)
		return
	}
	out := make([]checkResultJSON, len(results))
	violated := 0
	errored := 0
	for i, res := range results {
		out[i] = checkResultJSONOf(res)
		if res.Err != nil {
			errored++
		} else if res.Violated {
			violated++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"results":  out,
		"checked":  len(results) - errored,
		"violated": violated,
		"errored":  errored,
	})
}

// handleDrilldown returns the top-k records contributing to a violation,
// with their rendered rows.
//
// The request names either one constraint (constraint / constraint_id — the
// original single-constraint form, whose response carries the per-drill
// statistics) or a family (constraints / constraint_ids), which is drilled
// concurrently over drilldown.MultiTopK's worker pool and pooled into one
// deduplicated ranking. Either form's pool (a family's constraints, a
// drill's strata) is bounded by workers, defaulting to the server-wide
// pool size.
func (s *Server) handleDrilldown(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Dataset       string   `json:"dataset"`
		Constraint    string   `json:"constraint,omitempty"`
		ConstraintID  int      `json:"constraint_id,omitempty"`
		Constraints   []string `json:"constraints,omitempty"`
		ConstraintIDs []int    `json:"constraint_ids,omitempty"`
		K             int      `json:"k"`
		Strategy      string   `json:"strategy,omitempty"`
		Method        string   `json:"method,omitempty"`
		Bins          int      `json:"bins,omitempty"`
		Workers       int      `json:"workers,omitempty"`
	}
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rel, cache, release, ok := s.acquireForRequest(w, r, req.Dataset)
	if !ok {
		return
	}
	defer release()
	opts := drilldown.Options{Bins: req.Bins, Cache: cache, Workers: req.Workers}
	if opts.Workers <= 0 {
		opts.Workers = s.opts.Workers
	}
	switch req.Strategy {
	case "", "best":
		opts.Strategy = drilldown.Best
	case "k":
		opts.Strategy = drilldown.K
	case "kc":
		opts.Strategy = drilldown.Kc
	default:
		writeError(w, http.StatusBadRequest, "unknown strategy %q", req.Strategy)
		return
	}
	switch req.Method {
	case "", "auto":
		opts.Method = drilldown.AutoMethod
	case "g":
		opts.Method = drilldown.GMethod
	case "tau":
		opts.Method = drilldown.TauMethod
	default:
		writeError(w, http.StatusBadRequest, "unknown drill method %q", req.Method)
		return
	}

	multi := len(req.Constraints) > 0 || len(req.ConstraintIDs) > 0
	if !multi {
		a, err := s.resolveConstraint(req.Constraint, req.ConstraintID)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		res, err := drilldown.TopKContext(r.Context(), rel, a.SC, req.K, opts)
		if err != nil {
			writeError(w, errStatus(err), "%v", err)
			return
		}
		records := make([][]string, len(res.Rows))
		for i, row := range res.Rows {
			records[i] = rel.Row(row)
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"constraint":   a.SC.String(),
			"rows":         res.Rows,
			"records":      records,
			"columns":      rel.Columns(),
			"initial_stat": res.InitialStat,
			"final_stat":   res.FinalStat,
		})
		return
	}

	if req.Constraint != "" || req.ConstraintID != 0 {
		writeError(w, http.StatusBadRequest, "give either a single constraint or a constraint family, not both")
		return
	}
	if len(req.Constraints) > 0 && len(req.ConstraintIDs) > 0 {
		writeError(w, http.StatusBadRequest, "give either constraints or constraint_ids, not both")
		return
	}
	var family []sc.SC
	names := make([]string, 0, len(req.Constraints)+len(req.ConstraintIDs))
	for _, text := range req.Constraints {
		a, err := sc.ParseApproximate(text)
		if err != nil {
			writeError(w, http.StatusBadRequest, "parsing constraint %q: %v", text, err)
			return
		}
		family = append(family, a.SC)
		names = append(names, a.SC.String())
	}
	for _, id := range req.ConstraintIDs {
		a, err := s.resolveConstraint("", id)
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		family = append(family, a.SC)
		names = append(names, a.SC.String())
	}
	opts.Hooks = s.metrics.engineHooks("drilldown")
	rows, err := drilldown.MultiTopKContext(r.Context(), rel, family, req.K, opts)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	records := make([][]string, len(rows))
	for i, row := range rows {
		records[i] = rel.Row(row)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"constraints": names,
		"rows":        rows,
		"records":     records,
		"columns":     rel.Columns(),
	})
}
