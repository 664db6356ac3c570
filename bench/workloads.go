package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"scoded/internal/drilldown"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stream"
)

// config sizes one run. defaultConfig is the benchmark; the tests shrink it.
type config struct {
	seed      int64
	seconds   float64 // measured phase length per workload
	maxOps    int     // when positive, stop the measured phase after this many ops
	setupReps int     // fresh servers set up per run; setup_s is their median
	warmOps   int     // requests sent in set-up once the data is loaded

	mainRows, mainStrata           int
	drillRows, drillStrata, drillK int
	appendRows, epochCycles        int
	ingestBatch, ingestWindow      int

	sampleEvery int // every n-th op is checked against the reference
	// corrupt perturbs every reference: the tests use it to show that a
	// wrong answer is counted as a failure.
	corrupt bool

	// The traced replay repeats each fast operation replayOps times and
	// each one that takes tens of milliseconds replaySlowOps times.
	replayOps, replaySlowOps int
}

func defaultConfig(seed int64, seconds float64) config {
	return config{
		seed: seed, seconds: seconds, setupReps: 5, warmOps: 10,
		mainRows: 20000, mainStrata: 12,
		drillRows: 8000, drillStrata: 16, drillK: 100,
		appendRows: 200, epochCycles: 40,
		ingestBatch: 256, ingestWindow: 10000,
		sampleEvery:   50,
		replayOps:     60,
		replaySlowOps: 12,
	}
}

// env is what every workload run shares.
type env struct {
	cfg    config
	in     inputs
	launch launcher
	work   string // scratch directory for data directories
}

// dataDir makes a fresh, empty data directory for one server.
func (e *env) dataDir(name string) (string, error) {
	return os.MkdirTemp(e.work, name+"-")
}

// scenario is one workload's behaviour. The runner times setup, runs
// measure on the last set-up server, then calls verify off the clock.
type scenario interface {
	// setup starts a server and brings it to the measured state.
	setup(ctx context.Context, e *env) (*instance, error)
	// measure runs the measured phase against inst.
	measure(ctx context.Context, e *env, inst *instance, m *meter) error
	// verify compares the kept responses and the server's final state with
	// the references and returns the mismatches.
	verify(ctx context.Context, e *env, inst *instance, m *meter) []error
	// describe adds the workload's shape to the run metadata.
	describe(meta *runMeta, cfg config)
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	name    string
	clients int
	tail    float64 // the tail percentile reported as tail_ms
	// prepare computes the references off the clock, before any server
	// starts, and returns the scenario.
	prepare func(ctx context.Context, e *env) (scenario, error)
}

var workloads = []workload{
	{name: "resident_checkall", clients: residentClients, tail: 0.99, prepare: prepareResident},
	{name: "append_checkall", clients: 1, tail: 0.90, prepare: prepareAppend},
	{name: "oocore_checkall", clients: 1, tail: 0.90, prepare: prepareOocore},
	{name: "drilldown", clients: 1, tail: 0.90, prepare: prepareDrill},
	{name: "ingest", clients: ingestProducers, tail: 0.99, prepare: prepareIngest},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deadline is when a time-boxed measured phase ends (zero when op-capped).
func (e *env) deadline() time.Time {
	if e.cfg.maxOps > 0 {
		return time.Time{}
	}
	return time.Now().Add(time.Duration(e.cfg.seconds * float64(time.Second)))
}

// sampled reports whether op seq's response is kept for the reference
// check. The last response of each client is kept as well.
func (e *env) sampled(seq int) bool { return seq%e.cfg.sampleEvery == 0 }

const checkAllBody = `{"dataset":"main","fdr":0.05}`

// loadMain uploads the main dataset and registers the family.
func loadMain(ctx context.Context, e *env, cl *client, wantUpload int) error {
	if _, err := cl.expect(ctx, "POST", "/v1/datasets?name=main", e.in.mainCSV, wantUpload); err != nil {
		return err
	}
	for _, text := range e.in.family {
		body := mustJSON(map[string]string{"constraint": text})
		if _, err := cl.expect(ctx, "POST", "/v1/constraints", body, 201); err != nil {
			return err
		}
	}
	return nil
}

// checkAll sends one /v1/checkall and checks status and envelope.
func checkAll(ctx context.Context, e *env, cl *client, buf *bytes.Buffer) error {
	status, err := cl.do(ctx, "POST", "/v1/checkall", []byte(checkAllBody), buf)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("checkall: status %d: %.200s", status, buf.Bytes())
	}
	if !bytes.HasPrefix(buf.Bytes(), checkAllPrefix(len(e.in.family))) {
		return fmt.Errorf("checkall: not a full error-free family: %.200s", buf.Bytes())
	}
	return nil
}

func warmCheckAll(ctx context.Context, e *env, cl *client, n int) error {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		if err := checkAll(ctx, e, cl, &buf); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// checkKept matches every kept response against expect(route, arg).
func checkKept(ks []kept, expect func(k kept) error) []error {
	var errs []error
	for _, k := range ks {
		if err := expect(k); err != nil {
			errs = append(errs, fmt.Errorf("%s response (arg %d): %w", k.route, k.arg, err))
		}
	}
	return errs
}

// ---- resident_checkall -------------------------------------------------

// residentClients is the resident workload's client count: two clients
// load both cores and steady the percentiles more than one does.
const residentClients = 2

type residentScenario struct {
	ref checkAllJSON
}

func prepareResident(ctx context.Context, e *env) (scenario, error) {
	ref, err := mainRef(ctx, e)
	if err != nil {
		return nil, err
	}
	return &residentScenario{ref: ref}, nil
}

// mainRef is the expected checkall envelope of the uploaded main dataset.
func mainRef(ctx context.Context, e *env) (checkAllJSON, error) {
	rel, err := relation.ReadCSV(bytes.NewReader(e.in.mainCSV))
	if err != nil {
		return checkAllJSON{}, err
	}
	fam, err := parseFamily(e.in.family)
	if err != nil {
		return checkAllJSON{}, err
	}
	ref, err := checkAllRef(ctx, rel, fam)
	if e.cfg.corrupt {
		corruptCheckAll(&ref)
	}
	return ref, err
}

func (s *residentScenario) setup(ctx context.Context, e *env) (*instance, error) {
	inst, err := e.launch.start(ctx, serverSpec{})
	if err != nil {
		return nil, err
	}
	cl := newClient(inst.url, 1)
	defer cl.close()
	if err := loadMain(ctx, e, cl, 201); err != nil {
		return inst, err
	}
	return inst, warmCheckAll(ctx, e, cl, e.cfg.warmOps)
}

func (s *residentScenario) measure(ctx context.Context, e *env, inst *instance, m *meter) error {
	const clients = residentClients
	cl := newClient(inst.url, clients)
	defer cl.close()
	bufs := make([]bytes.Buffer, clients)
	return m.run(ctx, clients, 0, e.deadline(), e.cfg.maxOps, func(ctx context.Context, c, seq int, rec *recorder) error {
		start := time.Now()
		err := checkAll(ctx, e, cl, &bufs[c])
		rec.request("checkall", time.Since(start))
		if err != nil {
			return err
		}
		rec.keep("checkall", 0, bufs[c].Bytes(), e.sampled(seq))
		return nil
	})
}

func (s *residentScenario) verify(ctx context.Context, e *env, inst *instance, m *meter) []error {
	return checkKept(m.responses(), func(k kept) error { return matchJSON(k.body, s.ref) })
}

func (s *residentScenario) describe(meta *runMeta, cfg config) {
	meta.Rows = map[string]int{"main": cfg.mainRows, "strata": cfg.mainStrata, "constraints": len(s.ref.Results)}
}

// ---- append_checkall ---------------------------------------------------

type appendScenario struct {
	base    *relation.Relation
	batches []*relation.Relation
	fam     []sc.Approximate
	epochs  int
}

func prepareAppend(ctx context.Context, e *env) (scenario, error) {
	base, err := relation.ReadCSV(bytes.NewReader(e.in.mainCSV))
	if err != nil {
		return nil, err
	}
	fam, err := parseFamily(e.in.family)
	if err != nil {
		return nil, err
	}
	s := &appendScenario{base: base, fam: fam}
	kinds := kindsOf(base)
	for _, b := range e.in.appendCSV {
		batch, err := relation.ReadCSVTyped(bytes.NewReader(b), kinds)
		if err != nil {
			return nil, err
		}
		s.batches = append(s.batches, batch)
	}
	return s, nil
}

func (s *appendScenario) setup(ctx context.Context, e *env) (*instance, error) {
	dir, err := e.dataDir("append")
	if err != nil {
		return nil, err
	}
	inst, err := e.launch.start(ctx, serverSpec{dataDir: dir})
	if err != nil {
		return nil, err
	}
	cl := newClient(inst.url, 1)
	defer cl.close()
	if err := loadMain(ctx, e, cl, 201); err != nil {
		return inst, err
	}
	return inst, warmCheckAll(ctx, e, cl, e.cfg.warmOps)
}

// measure runs whole epochs of cycles until the measured time is spent.
// An epoch starts from the uploaded dataset and appends epochCycles
// batches, so every epoch does the same work however fast the server is;
// the reset between epochs (a re-upload and one checkall) is off the clock.
func (s *appendScenario) measure(ctx context.Context, e *env, inst *instance, m *meter) error {
	cl := newClient(inst.url, 1)
	defer cl.close()
	var buf bytes.Buffer
	budget := time.Duration(e.cfg.seconds * float64(time.Second))
	epoch := e.cfg.epochCycles
	op := func(ctx context.Context, _, seq int, rec *recorder) error {
		j := seq % epoch
		start := time.Now()
		status, err := cl.do(ctx, "POST", "/v1/datasets/main/rows", e.in.appendCSV[j], &buf)
		rec.request("append", time.Since(start))
		if err != nil {
			return err
		}
		want := fmt.Sprintf(`"rows":%d,`, e.cfg.mainRows+(j+1)*e.cfg.appendRows)
		if status != 200 || !bytes.Contains(buf.Bytes(), []byte(want)) {
			return fmt.Errorf("append: status %d, want 200 and %s: %.200s", status, want, buf.Bytes())
		}
		mid := time.Now()
		err = checkAll(ctx, e, cl, &buf)
		rec.request("checkall", time.Since(mid))
		if err != nil {
			return err
		}
		rec.keep("checkall", j, buf.Bytes(), e.sampled(seq))
		return nil
	}
	for s.epochs = 0; ; s.epochs++ {
		if s.epochs > 0 {
			if err := loadMainReplace(ctx, e, cl); err != nil {
				return err
			}
		}
		if err := m.run(ctx, 1, s.epochs*epoch, time.Time{}, epoch, op); err != nil {
			return err
		}
		if e.cfg.maxOps > 0 && m.ops() >= e.cfg.maxOps {
			break
		}
		if e.cfg.maxOps <= 0 && m.wall >= budget {
			break
		}
	}
	s.epochs++
	return nil
}

// loadMainReplace restores the uploaded dataset between epochs: the
// re-upload replaces the grown dataset (and its kernel cache), and one
// checkall warms the new cache.
func loadMainReplace(ctx context.Context, e *env, cl *client) error {
	if _, err := cl.expect(ctx, "POST", "/v1/datasets?name=main", e.in.mainCSV, 200); err != nil {
		return err
	}
	return warmCheckAll(ctx, e, cl, 1)
}

// verify computes the reference of every epoch position a kept response
// came from, in one pass that grows the relation batch by batch.
func (s *appendScenario) verify(ctx context.Context, e *env, inst *instance, m *meter) []error {
	ks := m.responses()
	need := make(map[int]bool)
	hi := -1
	for _, k := range ks {
		need[k.arg] = true
		hi = max(hi, k.arg)
	}
	refs := make(map[int]checkAllJSON)
	cur := s.base
	for j := 0; j <= hi; j++ {
		var err error
		if cur, err = cur.AppendRows(s.batches[j]); err != nil {
			return []error{err}
		}
		if !need[j] {
			continue
		}
		ref, err := checkAllRef(ctx, cur, s.fam)
		if err != nil {
			return []error{err}
		}
		if e.cfg.corrupt {
			corruptCheckAll(&ref)
		}
		refs[j] = ref
	}
	return checkKept(ks, func(k kept) error { return matchJSON(k.body, refs[k.arg]) })
}

func (s *appendScenario) describe(meta *runMeta, cfg config) {
	meta.Rows = map[string]int{
		"main": cfg.mainRows, "strata": cfg.mainStrata, "constraints": len(s.fam),
		"append_batch": cfg.appendRows, "epoch_cycles": cfg.epochCycles,
	}
	meta.Epochs = s.epochs
}

// ---- oocore_checkall ---------------------------------------------------

type oocoreScenario struct {
	ref       checkAllJSON
	diskBytes int64
	budget    int64
	// mismatch records a streamed answer that differed from the resident
	// one during set-up.
	mismatch error
}

func prepareOocore(ctx context.Context, e *env) (scenario, error) {
	ref, err := mainRef(ctx, e)
	if err != nil {
		return nil, err
	}
	return &oocoreScenario{ref: ref}, nil
}

// setup stores the dataset through a first server, answers the family
// from memory there, then restarts on the same directory with a resident
// budget below the on-disk size, so every checkall streams from segments.
// The first streamed answer must equal the resident one byte for byte.
func (s *oocoreScenario) setup(ctx context.Context, e *env) (*instance, error) {
	dir, err := e.dataDir("oocore")
	if err != nil {
		return nil, err
	}
	first, err := e.launch.start(ctx, serverSpec{dataDir: dir})
	if err != nil {
		return nil, err
	}
	cl := newClient(first.url, 1)
	var resident bytes.Buffer
	err = loadMain(ctx, e, cl, 201)
	if err == nil {
		err = checkAll(ctx, e, cl, &resident)
	}
	if err == nil {
		s.diskBytes, err = metricValue(ctx, cl, "scoded_store_bytes")
	}
	cl.close()
	if stopErr := first.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	s.budget = s.diskBytes / 2
	inst, err := e.launch.start(ctx, serverSpec{dataDir: dir, residentBytes: s.budget})
	if err != nil {
		return nil, err
	}
	cl = newClient(inst.url, 1)
	defer cl.close()
	var streamed bytes.Buffer
	if err := checkAll(ctx, e, cl, &streamed); err != nil {
		return inst, err
	}
	s.mismatch = nil
	if !bytes.Equal(streamed.Bytes(), resident.Bytes()) {
		s.mismatch = errors.New("streamed checkall differs from the resident answer")
	}
	return inst, nil
}

func (s *oocoreScenario) measure(ctx context.Context, e *env, inst *instance, m *meter) error {
	cl := newClient(inst.url, 1)
	defer cl.close()
	var buf bytes.Buffer
	return m.run(ctx, 1, 0, e.deadline(), e.cfg.maxOps, func(ctx context.Context, _, seq int, rec *recorder) error {
		start := time.Now()
		err := checkAll(ctx, e, cl, &buf)
		rec.request("checkall", time.Since(start))
		if err != nil {
			return err
		}
		rec.keep("checkall", 0, buf.Bytes(), e.sampled(seq))
		return nil
	})
}

// verify also proves the phase ran out of core: the server never
// materialized the relation.
func (s *oocoreScenario) verify(ctx context.Context, e *env, inst *instance, m *meter) []error {
	errs := checkKept(m.responses(), func(k kept) error { return matchJSON(k.body, s.ref) })
	if s.mismatch != nil {
		errs = append(errs, s.mismatch)
	}
	cl := newClient(inst.url, 1)
	defer cl.close()
	misses, err := metricValue(ctx, cl, "scoded_resident_misses_total")
	switch {
	case err != nil:
		errs = append(errs, err)
	case misses != 0:
		errs = append(errs, fmt.Errorf("the dataset was materialized %d times; the phase did not stream", misses))
	}
	return errs
}

func (s *oocoreScenario) describe(meta *runMeta, cfg config) {
	meta.Rows = map[string]int{"main": cfg.mainRows, "strata": cfg.mainStrata, "constraints": len(s.ref.Results)}
	meta.DiskBytes, meta.ResidentBudget = s.diskBytes, s.budget
}

// metricValue scrapes one unlabeled integer sample from /metrics.
func metricValue(ctx context.Context, cl *client, name string) (int64, error) {
	body, err := cl.expect(ctx, "GET", "/metrics", nil, 200)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s sample", name)
}

// ---- drilldown ---------------------------------------------------------

type drillScenario struct {
	tauBody, gBody []byte
	tauRef, gRef   drillJSON
}

func prepareDrill(ctx context.Context, e *env) (scenario, error) {
	rel, err := relation.ReadCSV(bytes.NewReader(e.in.drillCSV))
	if err != nil {
		return nil, err
	}
	s := &drillScenario{
		tauBody: drillRequest(drillTauSC, e.cfg.drillK, "tau"),
		gBody:   drillRequest(drillGSC, e.cfg.drillK, "g"),
	}
	if s.tauRef, err = drillRef(ctx, rel, drillTauSC, e.cfg.drillK, drilldown.TauMethod); err != nil {
		return nil, err
	}
	if s.gRef, err = drillRef(ctx, rel, drillGSC, e.cfg.drillK, drilldown.GMethod); err != nil {
		return nil, err
	}
	if e.cfg.corrupt {
		s.tauRef.InitialStat++
		s.gRef.FinalStat++
	}
	return s, nil
}

func drillRequest(constraint string, k int, method string) []byte {
	return mustJSON(map[string]any{
		"dataset": "drill", "constraint": constraint, "k": k, "strategy": "kc", "method": method,
	})
}

func (s *drillScenario) setup(ctx context.Context, e *env) (*instance, error) {
	inst, err := e.launch.start(ctx, serverSpec{})
	if err != nil {
		return nil, err
	}
	cl := newClient(inst.url, 1)
	defer cl.close()
	if _, err := cl.expect(ctx, "POST", "/v1/datasets?name=drill", e.in.drillCSV, 201); err != nil {
		return inst, err
	}
	for _, body := range [][]byte{s.tauBody, s.gBody} {
		if _, err := cl.expect(ctx, "POST", "/v1/drilldown", body, 200); err != nil {
			return inst, fmt.Errorf("warm-up: %w", err)
		}
	}
	return inst, nil
}

// measure sends one op as a tau drill followed by a G drill, so each op
// has the same cost and the two routes are also timed apart.
func (s *drillScenario) measure(ctx context.Context, e *env, inst *instance, m *meter) error {
	cl := newClient(inst.url, 1)
	defer cl.close()
	var buf bytes.Buffer
	drill := func(ctx context.Context, rec *recorder, seq int, route string, body []byte) error {
		start := time.Now()
		status, err := cl.do(ctx, "POST", "/v1/drilldown", body, &buf)
		rec.request(route, time.Since(start))
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("%s: status %d: %.200s", route, status, buf.Bytes())
		}
		rec.keep(route, 0, buf.Bytes(), e.sampled(seq))
		return nil
	}
	return m.run(ctx, 1, 0, e.deadline(), e.cfg.maxOps, func(ctx context.Context, _, seq int, rec *recorder) error {
		if err := drill(ctx, rec, seq, "drill_tau", s.tauBody); err != nil {
			return err
		}
		return drill(ctx, rec, seq, "drill_g", s.gBody)
	})
}

func (s *drillScenario) verify(ctx context.Context, e *env, inst *instance, m *meter) []error {
	return checkKept(m.responses(), func(k kept) error {
		if k.route == "drill_tau" {
			return matchJSON(k.body, s.tauRef)
		}
		return matchJSON(k.body, s.gRef)
	})
}

func (s *drillScenario) describe(meta *runMeta, cfg config) {
	meta.Rows = map[string]int{"drill": cfg.drillRows, "strata": cfg.drillStrata, "k": cfg.drillK}
}

// ---- ingest ------------------------------------------------------------

// ingestProducers is the ingest workload's client count. Each producer
// feeds its own numeric and categorical monitor, one batch to each per op,
// so every op costs the same and every monitor sees its records in one
// deterministic order.
const ingestProducers = 2

// ingestMonitor is one monitor of the ingest workload and its batches.
type ingestMonitor struct {
	id      int
	kind    string
	offset  int // the monitor's first batch, so monitors see different data
	batches []ingestBatch
}

func (mon ingestMonitor) batch(b int) ingestBatch {
	return mon.batches[(b+mon.offset)%len(mon.batches)]
}

func (mon ingestMonitor) path() string { return "/v1/monitors/" + strconv.Itoa(mon.id) + "/records" }

type ingestScenario struct {
	// monitors[2c] and monitors[2c+1] belong to producer c.
	monitors []ingestMonitor
	prefill  int
	sent     []int // batches each monitor received, prefill included
}

func prepareIngest(ctx context.Context, e *env) (scenario, error) {
	s := &ingestScenario{prefill: (e.cfg.ingestWindow + e.cfg.ingestBatch - 1) / e.cfg.ingestBatch}
	for c := 0; c < ingestProducers; c++ {
		s.monitors = append(s.monitors,
			ingestMonitor{id: 2*c + 1, kind: "numeric", offset: 17 * c, batches: e.in.numeric},
			ingestMonitor{id: 2*c + 2, kind: "categorical", offset: 17 * c, batches: e.in.cat})
	}
	s.sent = make([]int, len(s.monitors))
	return s, nil
}

// setup creates the monitors and fills their windows, so the measured
// phase starts at the steady state where every insert also evicts.
func (s *ingestScenario) setup(ctx context.Context, e *env) (*instance, error) {
	dir, err := e.dataDir("ingest")
	if err != nil {
		return nil, err
	}
	inst, err := e.launch.start(ctx, serverSpec{dataDir: dir})
	if err != nil {
		return nil, err
	}
	cl := newClient(inst.url, 1)
	defer cl.close()
	for _, mon := range s.monitors {
		body := mustJSON(map[string]any{"kind": mon.kind, "alpha": 0.05, "window": e.cfg.ingestWindow})
		if _, err := cl.expect(ctx, "POST", "/v1/monitors", body, 201); err != nil {
			return inst, err
		}
	}
	for i, mon := range s.monitors {
		for b := 0; b < s.prefill; b++ {
			if _, err := cl.expect(ctx, "POST", mon.path(), mon.batch(b).body, 200); err != nil {
				return inst, err
			}
		}
		s.sent[i] = s.prefill
	}
	return inst, nil
}

func (s *ingestScenario) measure(ctx context.Context, e *env, inst *instance, m *meter) error {
	cl := newClient(inst.url, ingestProducers)
	defer cl.close()
	bufs := make([]bytes.Buffer, ingestProducers)
	prefix := []byte(fmt.Sprintf(`{"inserted":%d,`, e.cfg.ingestBatch))
	return m.run(ctx, ingestProducers, 0, e.deadline(), e.cfg.maxOps, func(ctx context.Context, c, seq int, rec *recorder) error {
		for i := 2 * c; i < 2*c+2; i++ {
			mon := s.monitors[i]
			b := s.sent[i]
			s.sent[i]++
			start := time.Now()
			status, err := cl.do(ctx, "POST", mon.path(), mon.batch(b).body, &bufs[c])
			rec.request("ingest_"+mon.kind, time.Since(start))
			if err != nil {
				return err
			}
			if status != 200 || !bytes.HasPrefix(bufs[c].Bytes(), prefix) {
				return fmt.Errorf("records: status %d: %.200s", status, bufs[c].Bytes())
			}
			rec.keep(strconv.Itoa(i), b, bufs[c].Bytes(), e.sampled(seq))
		}
		return nil
	})
}

// verify checks every kept response's window size and observed count,
// then compares each monitor's final verdict with a fresh reference
// monitor fed the records the window holds: windows evict oldest first,
// so the last window-many records determine the verdict.
func (s *ingestScenario) verify(ctx context.Context, e *env, inst *instance, m *meter) []error {
	var errs []error
	window, batch := e.cfg.ingestWindow, e.cfg.ingestBatch
	for _, k := range m.responses() {
		i, _ := strconv.Atoi(k.route) // measure names the route by monitor index
		mon := s.monitors[i]
		observed := (k.arg + 1) * batch
		want := recordsJSON{Inserted: batch, Monitor: monitorJSON{
			ID: mon.id, Kind: mon.kind, Alpha: 0.05, Window: window,
			Observed: int64(observed), N: min(window, observed),
		}}
		if e.cfg.corrupt {
			want.Monitor.N++
		}
		if err := matchJSON(k.body, want); err != nil {
			errs = append(errs, fmt.Errorf("monitor %d batch %d: %w", mon.id, k.arg, err))
		}
	}
	cl := newClient(inst.url, 1)
	defer cl.close()
	for i, mon := range s.monitors {
		feed, verdict, err := newRefMonitor(mon.kind, window)
		if err != nil {
			return []error{err}
		}
		if err := feed(ctx, mon.last(s.sent[i], window)); err != nil {
			return []error{err}
		}
		body, err := cl.expect(ctx, "GET", "/v1/monitors/"+strconv.Itoa(mon.id)+"/verdict", nil, 200)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		want := verdictOf(mon.id, verdict(), int64(s.sent[i])*int64(batch))
		if e.cfg.corrupt {
			want.P *= 2
		}
		if err := matchVerdict(body, want); err != nil {
			errs = append(errs, fmt.Errorf("monitor %d verdict: %w", mon.id, err))
		}
	}
	return errs
}

// last returns the last n records of the first sent batches, oldest first.
func (mon ingestMonitor) last(sent, n int) ingestBatch {
	size := len(mon.batch(0).xf) + len(mon.batch(0).xs)
	var all ingestBatch
	for b := max(0, sent-(n+size-1)/size); b < sent; b++ {
		x := mon.batch(b)
		all.xf, all.yf = append(all.xf, x.xf...), append(all.yf, x.yf...)
		all.xs, all.ys = append(all.xs, x.xs...), append(all.ys, x.ys...)
	}
	if drop := len(all.xf) - n; drop > 0 {
		all.xf, all.yf = all.xf[drop:], all.yf[drop:]
	}
	if drop := len(all.xs) - n; drop > 0 {
		all.xs, all.ys = all.xs[drop:], all.ys[drop:]
	}
	return all
}

// newRefMonitor returns a feed function and a verdict function over a
// fresh monitor of the given kind.
func newRefMonitor(kind string, window int) (func(context.Context, ingestBatch) error, func() stream.Verdict, error) {
	if kind == "numeric" {
		mon, err := stream.NewNumericMonitor(0.05, false, window)
		if err != nil {
			return nil, nil, err
		}
		return func(ctx context.Context, b ingestBatch) error {
			_, err := mon.InsertBatch(ctx, b.xf, b.yf)
			return err
		}, mon.Verdict, nil
	}
	mon, err := stream.NewCategoricalMonitor(0.05, false, window)
	if err != nil {
		return nil, nil, err
	}
	return func(ctx context.Context, b ingestBatch) error {
		_, err := mon.InsertBatch(ctx, b.xs, b.ys)
		return err
	}, mon.Verdict, nil
}

func (s *ingestScenario) describe(meta *runMeta, cfg config) {
	meta.Rows = map[string]int{
		"monitors": len(s.monitors), "window": cfg.ingestWindow, "batch": cfg.ingestBatch, "prefill_batches": s.prefill,
	}
}
