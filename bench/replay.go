package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"time"

	"scoded/internal/detect"
	"scoded/internal/drilldown"
	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/server"
	"scoded/internal/store"
	"scoded/internal/stream"
)

// The traced replay: the operations of all five workloads, replayed
// in-process by calling each layer's public functions, with a span around
// every call. Per-layer metrics are read off the spans; end-to-end metrics
// never are (they come from the untraced HTTP run).
//
// Where the server does several layers' work inside one handler call, the
// replay times the handler whole (server.handler spans) and, in a separate
// op, the layer calls the handler makes; the server's own share is the
// difference of the two medians.

// detect's defaults, which the kernel miss probe must use so that the
// statistic probe afterwards finds every artifact warm.
const (
	detectBins      = 4
	detectMinStrata = 5
)

// errMiss reports a cache miss inside detect.statistic: the kernel probe
// no longer builds what detection reads.
var errMiss = errors.New("detect.checkall missed the kernel cache after the kernel probe warmed it")

// replay holds one pass of the traced replay.
type replay struct {
	cfg  config
	in   inputs
	tr   *tracer
	work string
	fam  []sc.Approximate
	// counts are the per-layer counts, measured with or without spans.
	counts map[string]float64
	// resident holds the resident answer the streamed one must equal.
	resident []resultJSON
}

func runReplay(ctx context.Context, cfg config, in inputs, work string, on bool) (*replay, time.Duration, error) {
	fam, err := parseFamily(in.family)
	if err != nil {
		return nil, 0, err
	}
	r := &replay{cfg: cfg, in: in, tr: newTracer(on), work: work, fam: fam, counts: make(map[string]float64)}
	start := time.Now()
	for _, part := range []func(context.Context) error{r.residentPart, r.appendPart, r.oocorePart, r.drillPart, r.ingestPart} {
		if err := part(ctx); err != nil {
			return r, 0, err
		}
	}
	return r, time.Since(start), nil
}

// call is tr.call for a function returning a value.
func call[T any](tr *tracer, name string, fn func() (T, error)) (T, error) {
	var v T
	err := tr.call(name, func() error {
		var err error
		v, err = fn()
		return err
	})
	return v, err
}

// post sends one POST through a handler, outside any span.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec
}

// handle sends one POST through a handler inside a span and checks the
// status.
func (r *replay) handle(name string, h http.Handler, path string, body []byte, want int) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	r.tr.call(name, func() error { h.ServeHTTP(rec, req); return nil })
	if rec.Code != want {
		return rec, fmt.Errorf("POST %s: status %d, want %d: %.200s", path, rec.Code, want, rec.Body.Bytes())
	}
	return rec, nil
}

// setupHandler starts an in-process server, uploads the main dataset,
// registers the family and warms its cache, outside any op.
func (r *replay) setupHandler(st *store.Store) (*server.Server, error) {
	srv := server.New(server.Options{Store: st})
	h := srv.Handler()
	check := func(rec *httptest.ResponseRecorder, want int) error {
		if rec.Code != want {
			return fmt.Errorf("replay set-up: status %d, want %d: %.200s", rec.Code, want, rec.Body.Bytes())
		}
		return nil
	}
	err := check(post(h, "/v1/datasets?name=main", r.in.mainCSV), 201)
	for _, text := range r.in.family {
		if err == nil {
			err = check(post(h, "/v1/constraints", mustJSON(map[string]string{"constraint": text})), 201)
		}
	}
	if err == nil {
		err = check(post(h, "/v1/checkall", []byte(checkAllBody)), 200)
	}
	if err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

func (r *replay) checkAll(ctx context.Context, rel *relation.Relation, cache *kernel.Cache) ([]detect.Result, error) {
	results, err := detect.CheckAllContext(ctx, rel, r.fam, detect.BatchOptions{Options: detect.Options{Cache: cache}, FDR: fdr})
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		if res.Err != nil {
			return nil, res.Err
		}
	}
	return results, nil
}

// ---- resident_checkall -------------------------------------------------

// residentPart replays set-up (CSV parse and every kernel miss, in the
// order detection makes them), the warm statistic, the handler and the
// loopback round trip.
func (r *replay) residentPart(ctx context.Context) error {
	var rel *relation.Relation
	var cache *kernel.Cache
	for i := 0; i < r.cfg.setupReps; i++ {
		err := r.tr.op("resident.setup", func() error {
			var err error
			rel, err = call(r.tr, "relation.read_csv", func() (*relation.Relation, error) {
				return relation.ReadCSV(bytes.NewReader(r.in.mainCSV))
			})
			if err != nil {
				return err
			}
			cache = kernel.New(rel)
			return r.kernelMisses(ctx, rel, cache)
		})
		if err != nil {
			return err
		}
	}
	srv, err := r.setupHandler(nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()
	cl := newClient(ts.URL, 1)
	defer cl.close()
	var buf bytes.Buffer
	prefix := checkAllPrefix(len(r.fam))
	statistic := func() error {
		before := cache.Stats().Misses
		results, err := call(r.tr, "detect.checkall", func() ([]detect.Result, error) { return r.checkAll(ctx, rel, cache) })
		if err != nil {
			return err
		}
		if cache.Stats().Misses != before {
			return errMiss
		}
		if r.resident == nil {
			for _, res := range results {
				r.resident = append(r.resident, resultJSONOf(res))
			}
		}
		return nil
	}
	handler := func() error {
		rec, err := r.handle("server.handler", h, "/v1/checkall", []byte(checkAllBody), 200)
		if err == nil && !bytes.HasPrefix(rec.Body.Bytes(), prefix) {
			err = errors.New("checkall handler: not a full error-free family")
		}
		r.counts["server.checkall_response_kb"] = float64(rec.Body.Len()) / 1024
		return err
	}
	loopback := func() error {
		status, err := call(r.tr, "server.loopback", func() (int, error) {
			return cl.do(ctx, "POST", "/v1/checkall", []byte(checkAllBody), &buf)
		})
		if err == nil && status != 200 {
			err = fmt.Errorf("loopback checkall: status %d", status)
		}
		return err
	}
	// The three ops alternate, so the differences taken between them pair
	// measurements made moments apart.
	for i := 0; i < r.cfg.replayOps; i++ {
		if err := r.ops(opStep{"resident.statistic", statistic}, opStep{"resident.handler", handler}, opStep{"resident.loopback", loopback}); err != nil {
			return err
		}
	}
	return nil
}

// opStep is one replayed operation: a root span name and its body.
type opStep struct {
	name string
	fn   func() error
}

// ops runs the steps in order, each as one replayed operation.
func (r *replay) ops(steps ...opStep) error {
	for _, st := range steps {
		if err := r.tr.op(st.name, st.fn); err != nil {
			return err
		}
	}
	return nil
}

// kernelMisses builds every kernel artifact the family reads, one span
// per cache call, in the order detection asks for them: the partition,
// then per constraint and stratum the column codes, then the table (G) or
// the Kendall preparation. Codes cover float columns too.
func (r *replay) kernelMisses(ctx context.Context, rel *relation.Relation, cache *kernel.Cache) error {
	for _, a := range r.fam {
		part, err := call(r.tr, "kernel.partition", func() (*kernel.Partition, error) {
			return cache.PartitionContext(ctx, rel, a.SC.Z)
		})
		if err != nil {
			return err
		}
		x, y := a.SC.X[0], a.SC.Y[0]
		numeric := rel.MustColumn(x).Kind == relation.Numeric && rel.MustColumn(y).Kind == relation.Numeric
		for _, k := range part.Keys {
			rows := part.Groups[k]
			if len(rows) < detectMinStrata {
				continue
			}
			key := part.StratumRowsKey(k)
			if numeric {
				for _, col := range []string{x, y} {
					if _, err := call(r.tr, "kernel.codes", func() ([]float64, error) {
						return cache.FloatsContext(ctx, rel, col, key, rows)
					}); err != nil {
						return err
					}
				}
				if _, err := call(r.tr, "kernel.kendall_prep", func() (any, error) {
					return cache.KendallPrepContext(ctx, rel, x, y, key, rows)
				}); err != nil {
					return err
				}
				continue
			}
			for _, col := range []string{x, y} {
				if err := r.tr.call("kernel.codes", func() error {
					_, _, err := cache.CodesContext(ctx, rel, col, detectBins, key, rows)
					return err
				}); err != nil {
					return err
				}
			}
			if err := r.tr.call("kernel.table", func() error {
				_, _, _, err := cache.TableContext(ctx, rel, x, y, detectBins, key, rows)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---- append_checkall ---------------------------------------------------

// appendPart replays one epoch of append cycles against a store and a
// kernel cache, each cycle followed by the same cycle through the handler.
func (r *replay) appendPart(ctx context.Context) error {
	dir, err := os.MkdirTemp(r.work, "replay-append-")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	rel, err := relation.ReadCSV(bytes.NewReader(r.in.mainCSV))
	if err != nil {
		return err
	}
	m, err := st.Replace("main", rel)
	if err != nil {
		return err
	}
	cache := kernel.NewAt(rel, m.Version)
	if _, err := r.checkAll(ctx, rel, cache); err != nil {
		return err
	}
	hdir, err := os.MkdirTemp(r.work, "replay-append-handler-")
	if err != nil {
		return err
	}
	hst, err := store.Open(hdir)
	if err != nil {
		return err
	}
	srv, err := r.setupHandler(hst)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	kinds := kindsOf(rel)
	var hits, misses int64
	for j := 0; j < r.cfg.epochCycles; j++ {
		cycle := func() error {
			batch, err := call(r.tr, "relation.read_csv_batch", func() (*relation.Relation, error) {
				return relation.ReadCSVTyped(bytes.NewReader(r.in.appendCSV[j]), kinds)
			})
			if err != nil {
				return err
			}
			if m, err = call(r.tr, "store.append", func() (*store.Manifest, error) { return st.Append("main", batch) }); err != nil {
				return err
			}
			grown, err := call(r.tr, "relation.append_rows", func() (*relation.Relation, error) { return rel.AppendRows(batch) })
			if err != nil {
				return err
			}
			next, _ := call(r.tr, "kernel.advance", func() (*kernel.Cache, error) { return cache.Advance(grown, m.Version), nil })
			before := next.Stats()
			if _, err := call(r.tr, "detect.checkall", func() ([]detect.Result, error) { return r.checkAll(ctx, grown, next) }); err != nil {
				return err
			}
			after := next.Stats()
			hits += after.Hits - before.Hits
			misses += after.Misses - before.Misses
			rel, cache = grown, next
			return nil
		}
		handler := func() error {
			if _, err := r.handle("server.append", h, "/v1/datasets/main/rows", r.in.appendCSV[j], 200); err != nil {
				return err
			}
			_, err := r.handle("server.checkall", h, "/v1/checkall", []byte(checkAllBody), 200)
			return err
		}
		if err := r.ops(opStep{"append.cycle", cycle}, opStep{"append.handler", handler}); err != nil {
			return err
		}
	}
	r.counts["store.segments"] = float64(len(m.Segments))
	r.counts["kernel.misses_per_checkall"] = float64(misses) / float64(r.cfg.epochCycles)
	r.counts["kernel.hit_ratio"] = float64(hits) / float64(max(1, hits+misses))
	return nil
}

// ---- oocore_checkall ---------------------------------------------------

// oocorePart replays streamed checkalls over the stored dataset. The scan
// is wrapped so that segment decode (store.scan self time) and the fold
// into partials (kernel.stream_fold) are timed apart; the rest of
// detect.checkall_stream is statistic finalization.
func (r *replay) oocorePart(ctx context.Context) error {
	dir, err := os.MkdirTemp(r.work, "replay-oocore-")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	rel, err := relation.ReadCSV(bytes.NewReader(r.in.mainCSV))
	if err != nil {
		return err
	}
	m, err := st.Replace("main", rel)
	if err != nil {
		return err
	}
	cols := make([]kernel.StreamColumn, len(m.Schema))
	for i, c := range m.Schema {
		kind := relation.Numeric
		if c.Kind == store.ColKindCategorical {
			kind = relation.Categorical
		}
		cols[i] = kernel.StreamColumn{Name: c.Name, Kind: kind}
	}
	var scans, rows int
	streamer, err := kernel.NewStreamer(kernel.StreamSource{
		Columns: cols,
		Rows:    m.Rows,
		Scan: func(ctx context.Context, fn func(*store.Segment) error) error {
			scans++
			return r.tr.call("store.scan", func() error {
				return st.ScanChunks(ctx, "main", 0, func(seg *store.Segment) error {
					rows += seg.Rows
					return r.tr.call("kernel.stream_fold", func() error { return fn(seg) })
				})
			})
		},
	})
	if err != nil {
		return err
	}
	ops := r.cfg.replaySlowOps
	for i := 0; i < ops; i++ {
		err := r.tr.op("oocore.checkall", func() error {
			results, err := call(r.tr, "detect.checkall_stream", func() ([]detect.Result, error) {
				return detect.CheckAllStream(ctx, streamer, r.fam, detect.BatchOptions{FDR: fdr})
			})
			if err != nil {
				return err
			}
			got := make([]resultJSON, len(results))
			for i, res := range results {
				if res.Err != nil {
					return res.Err
				}
				got[i] = resultJSONOf(res)
			}
			if !reflect.DeepEqual(got, r.resident) {
				return errors.New("streamed checkall differs from the resident answer")
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	r.counts["store.scans_per_checkall"] = float64(scans) / float64(ops)
	r.counts["store.rows_decoded_per_checkall"] = float64(rows) / float64(ops)
	return nil
}

// ---- drilldown ---------------------------------------------------------

// drillPart replays the two drills at k and at k = n-1 (init plus one
// round), so the round cost is their difference; the handler is timed on
// the G drill. The ops alternate, so each difference pairs measurements
// made moments apart.
func (r *replay) drillPart(ctx context.Context) error {
	rel, err := relation.ReadCSV(bytes.NewReader(r.in.drillCSV))
	if err != nil {
		return err
	}
	srv := server.New(server.Options{})
	defer srv.Close()
	h := srv.Handler()
	if rec := post(h, "/v1/datasets?name=drill", r.in.drillCSV); rec.Code != 201 {
		return fmt.Errorf("replay set-up: drill upload: status %d", rec.Code)
	}
	body := drillRequest(drillGSC, r.cfg.drillK, "g")
	post(h, "/v1/drilldown", body) // warms the server's cache
	cache := kernel.New(rel)
	n, k := rel.NumRows(), r.cfg.drillK
	var steps []opStep
	for _, d := range []struct {
		op     string
		sc     string
		method drilldown.Method
		k      int
	}{
		{"drill.tau", drillTauSC, drilldown.TauMethod, k},
		{"drill.tau_init", drillTauSC, drilldown.TauMethod, n - 1},
		{"drill.g", drillGSC, drilldown.GMethod, k},
		{"drill.g_init", drillGSC, drilldown.GMethod, n - 1},
	} {
		c, err := sc.Parse(d.sc)
		if err != nil {
			return err
		}
		opts := drilldown.Options{Strategy: drilldown.Kc, Method: d.method, Cache: cache}
		if _, err := drilldown.TopKContext(ctx, rel, c, d.k, opts); err != nil { // warms the cache
			return err
		}
		k := d.k
		steps = append(steps, opStep{d.op, func() error {
			_, err := call(r.tr, "drilldown.topk", func() (drilldown.Result, error) {
				return drilldown.TopKContext(ctx, rel, c, k, opts)
			})
			return err
		}})
	}
	steps = append(steps, opStep{"drill.handler", func() error {
		_, err := r.handle("server.handler", h, "/v1/drilldown", body, 200)
		return err
	}})
	for i := 0; i < r.cfg.replaySlowOps; i++ {
		if err := r.ops(steps...); err != nil {
			return err
		}
	}
	r.counts["drilldown.rounds"] = float64(n - k)
	return nil
}

// ---- ingest ------------------------------------------------------------

// ingestPart replays record batches into both monitor kinds with their
// durable log appends and registry saves, as the records handler makes
// them, alternating with the handler on a numeric monitor.
func (r *replay) ingestPart(ctx context.Context) error {
	dir, err := os.MkdirTemp(r.work, "replay-ingest-")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	window := r.cfg.ingestWindow
	prefill := (window + r.cfg.ingestBatch - 1) / r.cfg.ingestBatch
	num, err := stream.NewNumericMonitor(0.05, false, window)
	if err != nil {
		return err
	}
	cat, err := stream.NewCategoricalMonitor(0.05, false, window)
	if err != nil {
		return err
	}
	reg := &store.Registry{NextMonitor: 2, Monitors: []store.MonitorDef{
		{ID: 1, Kind: "numeric", Alpha: 0.05, Window: window},
		{ID: 2, Kind: "categorical", Alpha: 0.05, Window: window},
	}}
	kinds := []struct {
		op     string
		id     int
		kind   string
		insert func(ingestBatch) (int, error)
		// verdict is the monitor's Verdict, the call each batch ends with.
		verdict func()
		batches []ingestBatch
	}{
		{"ingest.numeric", 1, store.ColKindNumeric,
			func(b ingestBatch) (int, error) { return num.InsertBatch(ctx, b.xf, b.yf) },
			func() { num.Verdict() }, r.in.numeric},
		{"ingest.categorical", 2, store.ColKindCategorical,
			func(b ingestBatch) (int, error) { return cat.InsertBatch(ctx, b.xs, b.ys) },
			func() { cat.Verdict() }, r.in.cat},
	}
	for _, kd := range kinds {
		for b := 0; b < prefill; b++ {
			batch := kd.batches[b%len(kd.batches)]
			if _, err := kd.insert(batch); err != nil {
				return err
			}
			if err := st.AppendLog(kd.id, kd.kind, batch.xs, batch.ys, batch.xf, batch.yf, window); err != nil {
				return err
			}
		}
	}

	hdir, err := os.MkdirTemp(r.work, "replay-ingest-handler-")
	if err != nil {
		return err
	}
	hst, err := store.Open(hdir)
	if err != nil {
		return err
	}
	srv := server.New(server.Options{Store: hst})
	defer srv.Close()
	h := srv.Handler()
	create := post(h, "/v1/monitors", mustJSON(map[string]any{"kind": "numeric", "alpha": 0.05, "window": window}))
	if create.Code != 201 {
		return fmt.Errorf("replay set-up: monitor create: status %d", create.Code)
	}
	path := "/v1/monitors/1/records"
	for b := 0; b < prefill; b++ {
		if rec := post(h, path, r.in.numeric[b%len(r.in.numeric)].body); rec.Code != 200 {
			return fmt.Errorf("replay set-up: prefill: status %d", rec.Code)
		}
	}

	for i := 0; i < r.cfg.replayOps; i++ {
		var steps []opStep
		for _, kd := range kinds {
			batch := kd.batches[(prefill+i)%len(kd.batches)]
			steps = append(steps, opStep{kd.op, func() error {
				if _, err := call(r.tr, "stream.insert_batch", func() (int, error) { return kd.insert(batch) }); err != nil {
					return err
				}
				r.tr.call("stream.verdict", func() error { kd.verdict(); return nil })
				if err := r.tr.call("store.append_log", func() error {
					return st.AppendLog(kd.id, kd.kind, batch.xs, batch.ys, batch.xf, batch.yf, window)
				}); err != nil {
					return err
				}
				return r.tr.call("store.save_registry", func() error { return st.SaveRegistry(reg) })
			}})
		}
		body := r.in.numeric[(prefill+i)%len(r.in.numeric)].body
		steps = append(steps, opStep{"ingest.handler", func() error {
			_, err := r.handle("server.handler", h, path, body, 200)
			return err
		}})
		if err := r.ops(steps...); err != nil {
			return err
		}
	}
	return nil
}

// ---- metrics -----------------------------------------------------------

// layerMetrics derives every per-layer metric from the traced pass, plus
// the tracing overhead measured against the untraced passes. A share
// taken as a difference is the median of per-pair differences between
// ops that ran back to back.
func layerMetrics(traced *replay, overhead float64, unattributed float64) map[string]float64 {
	spans := traced.tr.spans
	self := selfTimes(spans)
	med := func(op string, names ...string) float64 { return median(perOp(spans, nil, op, names...)) }
	medSelf := func(op, name string) float64 { return median(perOp(spans, self, op, name)) }
	paired := func(a, b []float64) float64 {
		d := make([]float64, min(len(a), len(b)))
		for i := range d {
			d[i] = a[i] - b[i]
		}
		return median(d)
	}
	durs := func(op string, names ...string) []float64 { return perOp(spans, nil, op, names...) }
	cfg := traced.cfg
	rounds := traced.counts["drilldown.rounds"]
	v := map[string]float64{
		"relation.read_csv_ms":       med("resident.setup", "relation.read_csv"),
		"kernel.partition_ms":        med("resident.setup", "kernel.partition"),
		"kernel.codes_ms":            med("resident.setup", "kernel.codes"),
		"kernel.table_ms":            med("resident.setup", "kernel.table"),
		"kernel.kendall_prep_ms":     med("resident.setup", "kernel.kendall_prep"),
		"detect.statistic_ms":        med("resident.statistic", "detect.checkall"),
		"server.checkall_handler_ms": med("resident.handler", "server.handler"),
		"server.checkall_self_ms":    paired(durs("resident.handler", "server.handler"), durs("resident.statistic", "detect.checkall")),
		"server.transport_ms":        paired(durs("resident.loopback", "server.loopback"), durs("resident.handler", "server.handler")),

		"relation.read_csv_batch_ms": med("append.cycle", "relation.read_csv_batch"),
		"store.append_ms":            med("append.cycle", "store.append"),
		"relation.append_rows_ms":    med("append.cycle", "relation.append_rows"),
		"kernel.advance_ms":          med("append.cycle", "kernel.advance"),
		"server.append_self_ms": paired(durs("append.handler", "server.append"),
			durs("append.cycle", "relation.read_csv_batch", "store.append", "relation.append_rows", "kernel.advance")),

		"store.scan_decode_ms":      medSelf("oocore.checkall", "store.scan"),
		"kernel.stream_fold_ms":     med("oocore.checkall", "kernel.stream_fold"),
		"detect.stream_finalize_ms": medSelf("oocore.checkall", "detect.checkall_stream"),

		"drilldown.tau_init_ms":  med("drill.tau_init", "drilldown.topk"),
		"drilldown.g_init_ms":    med("drill.g_init", "drilldown.topk"),
		"drilldown.tau_round_us": paired(durs("drill.tau", "drilldown.topk"), durs("drill.tau_init", "drilldown.topk")) * 1000 / max(1, rounds-1),
		"drilldown.g_round_us":   paired(durs("drill.g", "drilldown.topk"), durs("drill.g_init", "drilldown.topk")) * 1000 / max(1, rounds-1),
		"server.drill_self_ms":   paired(durs("drill.handler", "server.handler"), durs("drill.g", "drilldown.topk")),

		"stream.numeric_insert_us_per_record":     med("ingest.numeric", "stream.insert_batch") * 1000 / float64(cfg.ingestBatch),
		"stream.categorical_insert_us_per_record": med("ingest.categorical", "stream.insert_batch") * 1000 / float64(cfg.ingestBatch),
		"stream.verdict_us":                       (med("ingest.numeric", "stream.verdict") + med("ingest.categorical", "stream.verdict")) * 1000 / 2,
		"store.append_log_ms":                     med("ingest.numeric", "store.append_log"),
		"store.save_registry_ms":                  med("ingest.numeric", "store.save_registry"),
		"server.ingest_self_ms": paired(durs("ingest.handler", "server.handler"),
			durs("ingest.numeric", "stream.insert_batch", "stream.verdict", "store.append_log", "store.save_registry")),

		"trace.unattributed_ms": unattributed,
		"trace.overhead_ms":     overhead,
	}
	for name, c := range traced.counts {
		v[name] = c
	}
	return v
}

// traceWorkload runs the traced replay, writes the spans, prints the
// self-time summary and returns the per-layer record. Every traced run
// replays all five workloads, so each reports every per-layer metric; the
// workload name labels the record.
func traceWorkload(ctx context.Context, cfg config, in inputs, work, name, spansPath string, spec *benchSpec, base runMeta, stderr io.Writer) (*record, error) {
	rec := &record{Workload: name, Trace: 1, Meta: base}
	rec.Meta.Workload = name
	traced, overhead, err := tracedReplay(ctx, cfg, in, work)
	if err != nil {
		// A failed replay (a wrong answer, or a cache miss where none may
		// happen) is an incorrect run; its metrics read zero.
		fmt.Fprintf(stderr, "traced replay failed: %v\n", err)
		rec.Attempted, rec.Failed, rec.Errors = 1, 1, []string{err.Error()}
		rec.Metrics = make(map[string]metricOut)
		for _, d := range spec.PerLayer {
			rec.Metrics[d.Name] = metricOut{Unit: d.Unit}
		}
		return rec, nil
	}
	unattributed := summarize(stderr, traced.tr.spans)
	fmt.Fprintf(stderr, "  unattributed root time %.4f ms/op; tracing overhead %.4f ms/op\n", unattributed, overhead)
	if err := writeSpans(spansPath, traced.tr.spans); err != nil {
		return nil, err
	}
	metrics, err := emit(spec.PerLayer, layerMetrics(traced, overhead, unattributed))
	if err != nil {
		return nil, err
	}
	rec.Metrics, rec.Attempted, rec.Correct = metrics, traced.tr.ops, true
	rec.Meta.Ops = traced.tr.ops
	return rec, nil
}

// tracedReplay runs the replay untraced, traced, and untraced again. The
// first pass only warms the process up (heap growth, page cache); the
// tracing overhead is the traced wall time minus the last pass's, per op.
func tracedReplay(ctx context.Context, cfg config, in inputs, work string) (*replay, float64, error) {
	if _, _, err := runReplay(ctx, cfg, in, work, false); err != nil {
		return nil, 0, err
	}
	traced, wall, err := runReplay(ctx, cfg, in, work, true)
	if err != nil {
		return nil, 0, err
	}
	if err := checkTree(traced.tr.spans); err != nil {
		return nil, 0, err
	}
	_, plain, err := runReplay(ctx, cfg, in, work, false)
	if err != nil {
		return nil, 0, err
	}
	return traced, ms(wall-plain) / float64(traced.tr.ops), nil
}
