package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// suite is one BENCH_<name>.json file: the Benchmark function whose
// sub-benchmarks are its variants, and the ratio fields the docs cite.
type suite struct {
	name   string
	ratios []ratio
}

// ratio is a file-level field: the median of one variant's metric over
// another's.
type ratio struct {
	field    string
	num, den string // variant names
	bytes    bool   // B/op instead of ns/op
}

// suites maps each suite's Benchmark function to its file.
var suites = map[string]suite{
	"BenchmarkSuiteDetect": {"detect", []ratio{
		{field: "speedup_fresh_vs_cold", num: "checkall_cold", den: "checkall_fresh_cache"},
		{field: "speedup_warm_vs_cold", num: "checkall_cold", den: "checkall_warm_cache"},
		{field: "speedup_append_vs_cold", num: "checkall_cold", den: "checkall_after_append"},
	}},
	"BenchmarkSuiteDrilldown": {"drilldown", []ratio{
		{field: "speedup_tau_kc", num: "tau_kc_linear", den: "tau_kc_delta"},
		{field: "speedup_g_kc", num: "g_kc_linear", den: "g_kc_delta"},
		{field: "speedup_multi", num: "multi_sequential", den: "multi_parallel"},
	}},
	"BenchmarkSuiteStream": {"stream", []ratio{
		{field: "speedup_numeric", num: "numeric_naive", den: "numeric_incremental"},
		{field: "speedup_categorical", num: "categorical_naive", den: "categorical_incremental"},
	}},
	"BenchmarkSuiteOocore": {"oocore", []ratio{
		{field: "stream_overhead_vs_resident", num: "checkall_stream_segment", den: "checkall_resident"},
		{field: "materialize_bytes_vs_stream_scan", num: "checkall_materialize", den: "checkall_stream_segment", bytes: true},
	}},
}

// runs are one variant's measurements, one per -count run.
type runs struct {
	ns, bytes, allocs []float64
}

// variant is one variant's entry in a BENCH file.
type variant struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"` // median
	NsPerOpMin  float64 `json:"ns_per_op_min"`
	NsPerOpMax  float64 `json:"ns_per_op_max"`
	BytesPerOp  float64 `json:"bytes_per_op"`  // median
	AllocsPerOp float64 `json:"allocs_per_op"` // median
}

// parsed is one suite's measurements, variants in the order they ran.
type parsed struct {
	gomaxprocs int
	order      []string
	runs       map[string]*runs
}

// convert reads `go test -bench Suite -benchmem` output from r and writes
// one BENCH_<suite>.json into dir per suite the output holds, returning
// the paths written. Nothing is written unless every file can be.
func convert(r io.Reader, dir string) ([]string, error) {
	found := map[string]*parsed{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(strings.TrimSpace(line), "--- FAIL") {
			return nil, fmt.Errorf("the benchmark run failed: %s", line)
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue // headers, PASS, ok lines and benchmark logs
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name, procs := splitProcs(f[0])
		fn, v, ok := strings.Cut(name, "/")
		if _, known := suites[fn]; !known || !ok {
			continue
		}
		p := found[fn]
		if p == nil {
			p = &parsed{gomaxprocs: procs, runs: map[string]*runs{}}
			found[fn] = p
		}
		if procs != p.gomaxprocs {
			return nil, fmt.Errorf("%s ran at GOMAXPROCS %d and %d; pass one -cpu value", fn, p.gomaxprocs, procs)
		}
		metrics := map[string]float64{}
		for i := 2; i+1 < len(f); i += 2 {
			x, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", f[0], f[i])
			}
			metrics[f[i+1]] = x // units b.ReportMetric adds are parsed and not recorded
		}
		for _, unit := range []string{"ns/op", "B/op", "allocs/op"} {
			if _, ok := metrics[unit]; !ok {
				return nil, fmt.Errorf("%s reports no %s; run go test with -benchmem", f[0], unit)
			}
		}
		rs := p.runs[v]
		if rs == nil {
			rs = &runs{}
			p.runs[v] = rs
			p.order = append(p.order, v)
		}
		rs.ns = append(rs.ns, metrics["ns/op"])
		rs.bytes = append(rs.bytes, metrics["B/op"])
		rs.allocs = append(rs.allocs, metrics["allocs/op"])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(found) == 0 {
		return nil, fmt.Errorf("no BenchmarkSuite results in the input")
	}

	fns := make([]string, 0, len(found))
	for fn := range found {
		fns = append(fns, fn)
	}
	slices.Sort(fns)
	files := map[string][]byte{}
	var paths []string
	for _, fn := range fns {
		b, err := report(suites[fn], found[fn])
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, "BENCH_"+suites[fn].name+".json")
		files[path] = b
		paths = append(paths, path)
	}
	for _, path := range paths {
		if err := os.WriteFile(path, files[path], 0o644); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// report renders one suite's file: gomaxprocs, the variants and the ratio
// fields, each ratio a quotient of medians.
func report(s suite, p *parsed) ([]byte, error) {
	out := map[string]any{"gomaxprocs": p.gomaxprocs}
	var results []variant
	for _, v := range p.order {
		rs := p.runs[v]
		results = append(results, variant{
			Name:        v,
			Runs:        len(rs.ns),
			NsPerOp:     median(rs.ns),
			NsPerOpMin:  slices.Min(rs.ns),
			NsPerOpMax:  slices.Max(rs.ns),
			BytesPerOp:  median(rs.bytes),
			AllocsPerOp: median(rs.allocs),
		})
	}
	out["results"] = results
	for _, r := range s.ratios {
		for _, v := range []string{r.num, r.den} {
			if p.runs[v] == nil {
				return nil, fmt.Errorf("%s: %s needs variant %s, which the input lacks", s.name, r.field, v)
			}
		}
		num, den := p.runs[r.num], p.runs[r.den]
		n, d := median(num.ns), median(den.ns)
		if r.bytes {
			n, d = median(num.bytes), median(den.bytes)
		}
		if d <= 0 {
			return nil, fmt.Errorf("%s: %s divides by %s's median of 0", s.name, r.field, r.den)
		}
		out[r.field] = n / d
	}
	b, err := json.MarshalIndent(out, "", "  ")
	return append(b, '\n'), err
}

// splitProcs splits the -GOMAXPROCS suffix go test appends to a benchmark
// name when GOMAXPROCS is not 1.
func splitProcs(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			return name[:i], n
		}
	}
	return name, 1
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
