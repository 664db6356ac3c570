// Package streambench defines the reproducible streaming-ingest workload
// behind the incremental-statistics performance trajectory:
// cmd/scoded-bench -json -suite stream and the benchmarks in this package
// both run exactly this workload, so the committed BENCH_stream.json
// numbers and `go test -bench` agree on what is being measured (the same
// contract internal/detectbench and internal/drillbench provide).
//
// The workload is a 100k-row sliding window under sustained ingest: every
// record is one insert plus one eviction plus a verdict read — the steady
// state of a windowed monitor behind POST /v1/monitors/{id}/records. Two
// kernels are compared per type:
//
//   - incremental: the production stream.NumericMonitor (Fenwick
//     concordance index rebuilt by merging, amortized O(√(w log w)) per
//     record) and
//     stream.CategoricalMonitor (O(1) cell deltas);
//   - naive: a from-scratch batch recompute of the same statistic over
//     the window after every record (stats.Kendall / stats.GTest), the
//     cost a monitor without incremental kernels would pay.
//
// The acceptance headline is records/sec incremental vs naive on the
// numeric window (target ≥ 10×).
package streambench

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"scoded/internal/stats"
	"scoded/internal/stream"
)

// workload dimensions; see NewWorkload.
const (
	workloadWindow  = 100000
	workloadRecords = 200000 // pregenerated stream, cycled as needed
	workloadLevels  = 8      // categories per categorical column
	naiveAlpha      = 0.05
)

// Workload is one reproducible streaming input: pregenerated numeric and
// categorical record streams, plus the window they slide over.
type Workload struct {
	Window int
	// X, Y are the numeric stream: rank-correlated pairs with a planted
	// dependent block, the drillbench recipe, so the monitor tracks a
	// genuinely non-null statistic while the window turns over.
	X, Y []float64
	// A, B are the categorical stream; AC, BC the same records as codes
	// for the naive table recompute.
	A, B   []string
	AC, BC []int
}

// NewWorkload builds the canonical streaming workload for a seed.
func NewWorkload(seed int64) *Workload {
	return NewWorkloadSize(seed, workloadWindow, workloadRecords)
}

// NewWorkloadSize is NewWorkload with explicit dimensions, for tests and
// regression benchmarks that want the same shape at other window sizes.
func NewWorkloadSize(seed int64, window, records int) *Workload {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{
		Window: window,
		X:      make([]float64, records),
		Y:      make([]float64, records),
		A:      make([]string, records),
		B:      make([]string, records),
		AC:     make([]int, records),
		BC:     make([]int, records),
	}
	levels := make([]string, workloadLevels)
	for i := range levels {
		levels[i] = fmt.Sprintf("v%d", i)
	}
	for i := 0; i < records; i++ {
		w.X[i] = rng.NormFloat64()
		w.Y[i] = rng.NormFloat64()
		if i%10 == 0 { // planted dependence: rank-aligned with X
			w.Y[i] = w.X[i] + 0.1*rng.NormFloat64()
		}
		a, b := rng.Intn(workloadLevels), rng.Intn(workloadLevels)
		if rng.Float64() < 0.25 {
			b = a
		}
		w.AC[i], w.BC[i] = a, b
		w.A[i], w.B[i] = levels[a], levels[b]
	}
	return w
}

// PrefilledNumeric returns a numeric monitor with a full window, so every
// subsequent insert is the steady-state insert+evict pair.
func (w *Workload) PrefilledNumeric() *stream.NumericMonitor {
	m, err := stream.NewNumericMonitor(naiveAlpha, false, w.Window)
	if err != nil {
		panic(err)
	}
	for i := 0; i < w.Window; i++ {
		m.Insert(w.X[i], w.Y[i])
	}
	return m
}

// PrefilledCategorical is the categorical twin of PrefilledNumeric.
func (w *Workload) PrefilledCategorical() *stream.CategoricalMonitor {
	m, err := stream.NewCategoricalMonitor(naiveAlpha, false, w.Window)
	if err != nil {
		panic(err)
	}
	for i := 0; i < w.Window; i++ {
		m.Insert(w.A[i], w.B[i])
	}
	return m
}

// naiveNumericWindow is the no-incremental-kernel baseline: a ring of
// observations recomputed from scratch with stats.Kendall after every
// record — exactly what a monitor would cost if each record re-ran batch
// detection on its window.
type naiveNumericWindow struct {
	xs, ys []float64
	next   int
	full   bool
}

func newNaiveNumericWindow(window int) *naiveNumericWindow {
	return &naiveNumericWindow{xs: make([]float64, 0, window), ys: make([]float64, 0, window)}
}

// insert applies one record (insert + implicit evict once full) and
// recomputes the full Kendall test over the window.
func (n *naiveNumericWindow) insert(x, y float64) stats.KendallResult {
	if !n.full && len(n.xs) < cap(n.xs) {
		n.xs = append(n.xs, x)
		n.ys = append(n.ys, y)
		if len(n.xs) == cap(n.xs) {
			n.full = true
		}
	} else {
		n.xs[n.next], n.ys[n.next] = x, y
		n.next++
		if n.next == len(n.xs) {
			n.next = 0
		}
	}
	if len(n.xs) < 2 {
		return stats.KendallResult{N: len(n.xs)}
	}
	res, err := stats.Kendall(n.xs, n.ys)
	if err != nil {
		panic(err)
	}
	return res
}

// naiveCategoricalWindow recomputes the windowed G test from codes after
// every record.
type naiveCategoricalWindow struct {
	a, b []int32
	next int
	full bool
}

func newNaiveCategoricalWindow(window int) *naiveCategoricalWindow {
	return &naiveCategoricalWindow{a: make([]int32, 0, window), b: make([]int32, 0, window)}
}

func (n *naiveCategoricalWindow) insert(a, b int) stats.TestResult {
	if !n.full && len(n.a) < cap(n.a) {
		n.a = append(n.a, int32(a))
		n.b = append(n.b, int32(b))
		if len(n.a) == cap(n.a) {
			n.full = true
		}
	} else {
		n.a[n.next], n.b[n.next] = int32(a), int32(b)
		n.next++
		if n.next == len(n.a) {
			n.next = 0
		}
	}
	res, err := stats.GTest(stats.TableFromCodes(n.a, n.b, workloadLevels, workloadLevels))
	if err != nil {
		panic(err)
	}
	return res
}

// BenchResult is one benchmark measurement in BENCH_stream.json.
type BenchResult struct {
	// Name identifies the variant: {numeric,categorical}_{incremental,naive};
	// each op is one record through a full sliding window (insert + evict +
	// verdict for incremental, insert + evict + batch recompute for naive).
	Name string `json:"name"`
	// Iters is the iteration count testing.Benchmark settled on.
	Iters       int   `json:"iters"`
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// RecordsPerSec is the sustained single-stream ingest rate this variant
	// supports: 1e9 / NsPerOp.
	RecordsPerSec float64 `json:"records_per_sec"`
}

// Report is the machine-readable content of BENCH_stream.json.
type Report struct {
	Seed int64 `json:"seed"`
	// Window is the sliding-window size every variant slides over.
	Window int `json:"window"`
	// GOMAXPROCS records the scheduler parallelism the run had. Every
	// variant runs on one goroutine; a second processor lets the garbage
	// collector run beside it.
	GOMAXPROCS int           `json:"gomaxprocs"`
	Results    []BenchResult `json:"results"`
	// SpeedupNumeric is naive ns/op divided by incremental ns/op on the
	// numeric window — the acceptance headline (target ≥ 10).
	SpeedupNumeric float64 `json:"speedup_numeric"`
	// SpeedupCategorical is the same ratio for the categorical window.
	SpeedupCategorical float64 `json:"speedup_categorical"`
}

// Bench measures the four variants with testing.Benchmark and derives the
// speedups. The workers parameter is accepted for CLI symmetry with the
// other suites; the streaming kernels are single-writer by design, so it
// is unused.
func Bench(seed int64, workers int) Report {
	_ = workers
	w := NewWorkload(seed)
	rep := Report{Seed: seed, Window: w.Window, GOMAXPROCS: runtime.GOMAXPROCS(0)}

	variants := []struct {
		name string
		run  func(b *testing.B)
	}{
		{"numeric_incremental", func(b *testing.B) {
			m := w.PrefilledNumeric()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := w.Window + i%(len(w.X)-w.Window)
				m.Insert(w.X[j], w.Y[j])
				if v := m.Verdict(); v.N == 0 {
					b.Fatal("empty window")
				}
			}
		}},
		{"numeric_naive", func(b *testing.B) {
			n := newNaiveNumericWindow(w.Window)
			n.xs = append(n.xs, w.X[:w.Window]...)
			n.ys = append(n.ys, w.Y[:w.Window]...)
			n.full = true
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := w.Window + i%(len(w.X)-w.Window)
				res := n.insert(w.X[j], w.Y[j])
				if res.N == 0 {
					b.Fatal("empty window")
				}
			}
		}},
		{"categorical_incremental", func(b *testing.B) {
			m := w.PrefilledCategorical()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := w.Window + i%(len(w.A)-w.Window)
				m.Insert(w.A[j], w.B[j])
				if v := m.Verdict(); v.N == 0 {
					b.Fatal("empty window")
				}
			}
		}},
		{"categorical_naive", func(b *testing.B) {
			n := newNaiveCategoricalWindow(w.Window)
			for j := 0; j < w.Window; j++ {
				n.a = append(n.a, int32(w.AC[j]))
				n.b = append(n.b, int32(w.BC[j]))
			}
			n.full = true
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := w.Window + i%(len(w.A)-w.Window)
				res := n.insert(w.AC[j], w.BC[j])
				if res.N == 0 {
					b.Fatal("empty window")
				}
			}
		}},
	}
	for _, v := range variants {
		r := testing.Benchmark(v.run)
		ns := r.NsPerOp()
		if ns <= 0 {
			ns = 1
		}
		rep.Results = append(rep.Results, BenchResult{
			Name:          v.name,
			Iters:         r.N,
			NsPerOp:       ns,
			BytesPerOp:    r.AllocedBytesPerOp(),
			AllocsPerOp:   r.AllocsPerOp(),
			RecordsPerSec: 1e9 / float64(ns),
		})
	}
	rep.SpeedupNumeric = ratio(rep.Results, "numeric_naive", "numeric_incremental")
	rep.SpeedupCategorical = ratio(rep.Results, "categorical_naive", "categorical_incremental")
	return rep
}

func ratio(rs []BenchResult, slow, fast string) float64 {
	var s, f float64
	for _, r := range rs {
		switch r.Name {
		case slow:
			s = float64(r.NsPerOp)
		case fast:
			f = float64(r.NsPerOp)
		}
	}
	if f <= 0 {
		return 0
	}
	return s / f
}
