// Command bench is SCODED's end-to-end benchmark. It builds scoded-serve
// from the checkout, drives a fresh child server per workload over
// loopback HTTP in a closed loop, checks every response, and prints every
// end-to-end metric named in BENCHMARK.json with its unit. With -trace 1 it
// instead replays the same operations in-process, calling each layer's
// public functions inside spans, and prints every per-layer metric.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-spans FILE] [-out FILE]
//	bash bench/run.sh -compare OLD.jsonl NEW.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero when
// any response differs from its in-process reference. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	// An interrupt cancels the run; the servers it started are still
	// stopped and awaited before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	spans    string
	out      string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: every workload in BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 16, "length of each workload's measured phase, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 replays the operations in-process with spans and reports the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "file the traced replay writes its spans to (default .bench_build/spans.json)")
	fs.StringVar(&o.out, "out", "", "append each run's full record to this JSON-lines file, for -compare")
	compare := fs.Bool("compare", false, "compare two record files written by -out: -compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two record files")
			return 2
		}
		if err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	names, err := selectWorkloads(spec, o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	ok, err := measure(ctx, root, spec, names, o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// measure runs the named workloads (or their traced replay) and prints
// one result per workload. It reports whether every result was correct.
func measure(ctx context.Context, root string, spec *benchSpec, names []string, o options, stdout, stderr io.Writer) (bool, error) {
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return false, err
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	cfg := defaultConfig(o.seed, o.seconds)
	in := genInputs(cfg)
	base := baseMeta(root, cfg)

	var records []*record
	if o.trace == 1 {
		spansPath := o.spans
		if spansPath == "" {
			spansPath = filepath.Join(buildDir, "spans.json")
		}
		// The replay covers every workload, so it runs once whatever the
		// selection; the record carries the requested name.
		label := o.workload
		if label == "" {
			label = "all"
		}
		rec, err := traceWorkload(ctx, cfg, in, work, label, spansPath, spec, base, stderr)
		if err != nil {
			return false, err
		}
		records = append(records, rec)
	} else {
		bin, err := buildServe(ctx, root, buildDir)
		if err != nil {
			return false, err
		}
		e := &env{cfg: cfg, in: in, launch: procLauncher{bin: bin, logDir: work}, work: work}
		for _, name := range names {
			w, _ := workloadByName(name) // selectWorkloads checked the name
			rec, err := runWorkload(ctx, e, w, spec, base)
			if err != nil {
				return false, err
			}
			printRecord(stderr, rec)
			records = append(records, rec)
		}
	}
	allOK := true
	for _, rec := range records {
		if o.out != "" {
			if err := appendRecord(o.out, rec); err != nil {
				return false, err
			}
		}
		allOK = allOK && rec.Correct
		line, err := json.Marshal(rec.result())
		if err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return allOK, nil
}

// runWorkload sets up cfg.setupReps fresh servers, measures the last one,
// checks the kept responses off the clock, and assembles the record.
func runWorkload(ctx context.Context, e *env, w workload, spec *benchSpec, base runMeta) (*record, error) {
	scn, err := w.prepare(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("%s: computing references: %w", w.name, err)
	}
	var inst *instance
	stop := func() error {
		if inst == nil {
			return nil
		}
		err := inst.stop()
		inst = nil
		return err
	}
	defer stop()
	var setups []float64
	for rep := 0; rep < e.cfg.setupReps; rep++ {
		if err := stop(); err != nil {
			return nil, fmt.Errorf("%s: stopping a set-up server: %w", w.name, err)
		}
		start := time.Now()
		inst, err = scn.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	m := &meter{pid: inst.pid}
	if err := scn.measure(ctx, e, inst, m); err != nil {
		return nil, fmt.Errorf("%s: measured phase: %w", w.name, err)
	}
	mismatches := scn.verify(ctx, e, inst, m)
	flags := inst.flags
	if err := stop(); err != nil {
		return nil, fmt.Errorf("%s: stopping the server: %w", w.name, err)
	}

	ops := m.ops()
	if ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed", w.name)
	}
	lat := m.latencies()
	values := map[string]float64{
		"setup_s":              median(setups),
		"throughput_ops_s":     float64(ops) / m.wall.Seconds(),
		"p50_ms":               median(lat),
		"tail_ms":              percentile(lat, w.tail),
		"server_cpu_ms_per_op": ms(m.cpu) / float64(ops),
		"server_rss_mb":        median(m.rss) / (1 << 20),
	}
	metrics, err := emit(spec.EndToEnd, values)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := &record{Workload: w.name, Attempted: ops, Metrics: metrics, Meta: base}
	rec.Routes = make(map[string]routeStats)
	for route, v := range m.routeLatencies() {
		rec.Routes[route] = routeStats{Count: len(v), P50Ms: median(v), TailMs: percentile(v, w.tail)}
	}
	for _, r := range m.recs {
		rec.Failed += r.failed
	}
	rec.Errors = failures(m.recs)
	for _, err := range mismatches {
		rec.Failed++
		if len(rec.Errors) < maxFailMessages {
			rec.Errors = append(rec.Errors, err.Error())
		}
	}
	rec.Correct = rec.Failed == 0
	meta := &rec.Meta
	meta.Workload, meta.Clients = w.name, w.clients
	meta.TailPercentile = fmt.Sprintf("p%g", w.tail*100)
	meta.ServerFlags = flags
	meta.Ops = ops
	meta.MeasuredSeconds = m.wall.Seconds()
	meta.SetupSeconds = setups
	scn.describe(meta, e.cfg)
	return rec, nil
}

// record is one run's full result, as -out writes it.
type record struct {
	Workload  string                `json:"workload"`
	Trace     int                   `json:"trace"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricOut  `json:"metrics"`
	Routes    map[string]routeStats `json:"routes,omitempty"`
	Errors    []string              `json:"errors,omitempty"`
	Meta      runMeta               `json:"meta"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// routeStats times one HTTP route inside a workload's ops.
type routeStats struct {
	Count  int     `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	TailMs float64 `json:"tail_ms"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func (r *record) result() result {
	return result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// runMeta describes the conditions of a run.
type runMeta struct {
	Workload   string `json:"workload"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	// Scaling states what the run cannot show.
	Scaling         string         `json:"scaling"`
	Clients         int            `json:"clients,omitempty"`
	TailPercentile  string         `json:"tail_percentile,omitempty"`
	ServerFlags     []string       `json:"server_flags,omitempty"`
	Rows            map[string]int `json:"rows,omitempty"`
	DiskBytes       int64          `json:"disk_bytes,omitempty"`
	ResidentBudget  int64          `json:"resident_budget_bytes,omitempty"`
	Ops             int            `json:"ops"`
	Epochs          int            `json:"epochs,omitempty"`
	MeasuredSeconds float64        `json:"measured_seconds,omitempty"`
	SetupSeconds    []float64      `json:"setup_seconds,omitempty"`
}

func baseMeta(root string, cfg config) runMeta {
	return runMeta{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root),
		Seed:       cfg.seed,
		Scaling:    fmt.Sprintf("measured on %d cores; scaling beyond nproc cores is unmeasured", runtime.NumCPU()),
	}
}

// commitOf is the checkout's git commit, or "unknown" outside a git
// repository. The search stops at root, so an enclosing repository is not
// mistaken for the checkout.
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "== %s: %d ops in %.1fs, %d failed, %s\n",
		rec.Workload, rec.Meta.Ops, rec.Meta.MeasuredSeconds, rec.Failed, rec.Meta.Scaling)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "   %-24s %12.4f %s\n", name, rec.Metrics[name].Value, rec.Metrics[name].Unit)
	}
	routes := make([]string, 0, len(rec.Routes))
	for route := range rec.Routes {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	for _, route := range routes {
		r := rec.Routes[route]
		fmt.Fprintf(w, "   route %-18s n=%-6d p50 %.3f ms  %s %.3f ms\n", route, r.Count, r.P50Ms, rec.Meta.TailPercentile, r.TailMs)
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "   FAIL %s\n", e)
	}
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// benchSpec is BENCHMARK.json: the one list of workloads and metrics.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark does not define", w.Name)
		}
	}
	return &spec, nil
}

func selectWorkloads(spec *benchSpec, name string) ([]string, error) {
	var names []string
	for _, w := range spec.Workloads {
		if name == "" || name == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return names, nil
}

// emit pairs every metric BENCHMARK.json lists with its measured value. A
// listed metric without a value, a measured one BENCHMARK.json does not
// list, or a value that is not finite is an error: the list and the code
// must agree.
func emit(defs []metricDef, values map[string]float64) (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		out[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not listed in BENCHMARK.json", name)
		}
	}
	return out, nil
}

var moduleScoded = regexp.MustCompile(`(?m)^module\s+scoded\s*$`)

// findRoot walks up from the working directory to the checkout: the
// directory whose go.mod declares module scoded.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && moduleScoded.Match(data) {
			return dir, nil
		}
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return "", err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout found: no go.mod declaring module scoded above the working directory")
		}
		dir = parent
	}
}
