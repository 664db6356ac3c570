package stream

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scoded/internal/stats"
)

// The streaming benchmark workload behind BENCH_stream.json: a 100k-row
// sliding window under sustained ingest, where every record is one insert,
// one eviction and a verdict read, the steady state of a windowed monitor
// behind POST /v1/monitors/{id}/records. Each monitor kind races a naive
// baseline that recomputes the batch statistic (stats.Kendall or
// stats.GTest) over the window after every record, the cost a monitor
// without incremental kernels would pay.
const (
	benchSeed     = 1 // the seed of every streaming benchmark input
	streamWindow  = 100000
	streamRecords = 200000 // pregenerated stream, cycled as needed
	streamLevels  = 8      // categories per categorical column
	naiveAlpha    = 0.05
)

// streamWorkload is one reproducible streaming input: pregenerated numeric
// and categorical record streams, plus the window they slide over.
type streamWorkload struct {
	Window int
	// X, Y are the numeric stream: rank-correlated pairs with a planted
	// dependent block, so the monitor tracks a genuinely non-null
	// statistic while the window turns over.
	X, Y []float64
	// A, B are the categorical stream; AC, BC the same records as codes
	// for the naive table recompute.
	A, B   []string
	AC, BC []int
}

// newStreamWorkload builds the workload for a seed at the given window and
// stream length.
func newStreamWorkload(seed int64, window, records int) *streamWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &streamWorkload{
		Window: window,
		X:      make([]float64, records),
		Y:      make([]float64, records),
		A:      make([]string, records),
		B:      make([]string, records),
		AC:     make([]int, records),
		BC:     make([]int, records),
	}
	levels := make([]string, streamLevels)
	for i := range levels {
		levels[i] = fmt.Sprintf("v%d", i)
	}
	for i := 0; i < records; i++ {
		w.X[i] = rng.NormFloat64()
		w.Y[i] = rng.NormFloat64()
		if i%10 == 0 { // planted dependence: rank-aligned with X
			w.Y[i] = w.X[i] + 0.1*rng.NormFloat64()
		}
		a, b := rng.Intn(streamLevels), rng.Intn(streamLevels)
		if rng.Float64() < 0.25 {
			b = a
		}
		w.AC[i], w.BC[i] = a, b
		w.A[i], w.B[i] = levels[a], levels[b]
	}
	return w
}

// prefilledNumeric returns a numeric monitor with a full window, so every
// subsequent insert is the steady-state insert+evict pair.
func (w *streamWorkload) prefilledNumeric(tb testing.TB) *NumericMonitor {
	m, err := NewNumericMonitor(naiveAlpha, false, w.Window)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < w.Window; i++ {
		m.Insert(w.X[i], w.Y[i])
	}
	return m
}

// prefilledCategorical is the categorical twin of prefilledNumeric.
func (w *streamWorkload) prefilledCategorical(tb testing.TB) *CategoricalMonitor {
	m, err := NewCategoricalMonitor(naiveAlpha, false, w.Window)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < w.Window; i++ {
		m.Insert(w.A[i], w.B[i])
	}
	return m
}

// naiveNumericWindow is the no-incremental-kernel baseline: a ring of
// observations recomputed from scratch with stats.Kendall after every
// record, what a monitor would cost if each record re-ran batch detection
// on its window.
type naiveNumericWindow struct {
	xs, ys []float64
	next   int
}

func newNaiveNumericWindow(window int) *naiveNumericWindow {
	return &naiveNumericWindow{xs: make([]float64, 0, window), ys: make([]float64, 0, window)}
}

// insert applies one record (insert + implicit evict once full) and
// recomputes the full Kendall test over the window.
func (n *naiveNumericWindow) insert(tb testing.TB, x, y float64) stats.KendallResult {
	if len(n.xs) < cap(n.xs) {
		n.xs = append(n.xs, x)
		n.ys = append(n.ys, y)
	} else {
		n.xs[n.next], n.ys[n.next] = x, y
		n.next = (n.next + 1) % len(n.xs)
	}
	if len(n.xs) < 2 {
		return stats.KendallResult{N: len(n.xs)}
	}
	res, err := stats.Kendall(n.xs, n.ys)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// naiveCategoricalWindow recomputes the windowed G test from codes after
// every record.
type naiveCategoricalWindow struct {
	a, b []int32
	next int
}

func newNaiveCategoricalWindow(window int) *naiveCategoricalWindow {
	return &naiveCategoricalWindow{a: make([]int32, 0, window), b: make([]int32, 0, window)}
}

func (n *naiveCategoricalWindow) insert(tb testing.TB, a, b int) stats.TestResult {
	if len(n.a) < cap(n.a) {
		n.a = append(n.a, int32(a))
		n.b = append(n.b, int32(b))
	} else {
		n.a[n.next], n.b[n.next] = int32(a), int32(b)
		n.next = (n.next + 1) % len(n.a)
	}
	res, err := stats.GTest(stats.TableFromCodes(n.a, n.b, streamLevels, streamLevels))
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkSuiteStream is the stream suite: each op is one record through
// a full 100k-record window, insert + evict + verdict for
// {numeric,categorical}_incremental and insert + evict + batch recompute
// for {numeric,categorical}_naive. Every variant runs on one goroutine; a
// second processor lets the garbage collector run beside it.
func BenchmarkSuiteStream(b *testing.B) {
	w := newStreamWorkload(benchSeed, streamWindow, streamRecords)
	// next is the stream position of op i: the records after the prefill,
	// cycled.
	next := func(i int) int { return w.Window + i%(len(w.X)-w.Window) }
	b.Run("numeric_incremental", func(b *testing.B) {
		m := w.prefilledNumeric(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := next(i)
			m.Insert(w.X[j], w.Y[j])
			if verdictSink = m.Verdict(); verdictSink.N == 0 {
				b.Fatal("empty window")
			}
		}
	})
	b.Run("numeric_naive", func(b *testing.B) {
		n := newNaiveNumericWindow(w.Window)
		n.xs = append(n.xs, w.X[:w.Window]...)
		n.ys = append(n.ys, w.Y[:w.Window]...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := next(i)
			if n.insert(b, w.X[j], w.Y[j]).N == 0 {
				b.Fatal("empty window")
			}
		}
	})
	b.Run("categorical_incremental", func(b *testing.B) {
		m := w.prefilledCategorical(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := next(i)
			m.Insert(w.A[j], w.B[j])
			if verdictSink = m.Verdict(); verdictSink.N == 0 {
				b.Fatal("empty window")
			}
		}
	})
	b.Run("categorical_naive", func(b *testing.B) {
		n := newNaiveCategoricalWindow(w.Window)
		for j := 0; j < w.Window; j++ {
			n.a = append(n.a, int32(w.AC[j]))
			n.b = append(n.b, int32(w.BC[j]))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := next(i)
			if n.insert(b, w.AC[j], w.BC[j]).N == 0 {
				b.Fatal("empty window")
			}
		}
	})
}

// TestNaiveAndIncrementalAgree pins the benchmark's two numeric variants
// to the same statistic on a small window — the baseline being raced must
// compute the same answer, or the speedup is meaningless.
func TestNaiveAndIncrementalAgree(t *testing.T) {
	const window, records = 256, 800
	w := newStreamWorkload(3, window, records)
	m, err := NewNumericMonitor(naiveAlpha, false, window)
	if err != nil {
		t.Fatal(err)
	}
	n := newNaiveNumericWindow(window)
	for i := 0; i < records; i++ {
		m.Insert(w.X[i], w.Y[i])
		res := n.insert(t, w.X[i], w.Y[i])
		if i < window-1 {
			continue
		}
		if got, want := m.PairSum(), float64(res.Concordant-res.Discordant); got != want {
			t.Fatalf("record %d: incremental pair sum %v, naive %v", i, got, want)
		}
		if diff := math.Abs(m.TauB() - res.TauB); diff > 1e-12 {
			t.Fatalf("record %d: TauB differs by %g", i, diff)
		}
	}
}

// TestCategoricalNaiveAndIncrementalAgree is the categorical twin.
func TestCategoricalNaiveAndIncrementalAgree(t *testing.T) {
	const window, records = 128, 500
	w := newStreamWorkload(4, window, records)
	m, err := NewCategoricalMonitor(naiveAlpha, false, window)
	if err != nil {
		t.Fatal(err)
	}
	n := newNaiveCategoricalWindow(window)
	for i := 0; i < records; i++ {
		m.Insert(w.A[i], w.B[i])
		res := n.insert(t, w.AC[i], w.BC[i])
		if i < window-1 {
			continue
		}
		if diff := math.Abs(m.G() - res.Statistic); diff > 1e-9*(1+math.Abs(res.Statistic)) {
			t.Fatalf("record %d: G differs by %g (incremental %v, naive %v)",
				i, diff, m.G(), res.Statistic)
		}
	}
}

// BenchmarkNumericInsertEvict is the eviction-cost regression benchmark:
// each op is one steady-state insert+evict on a full window. Before the
// ring buffer and concordance index, this cost grew linearly with the
// window (removeAt slice shift + O(w) pair walk); now it should stay
// within a small factor across a 64x window sweep.
func BenchmarkNumericInsertEvict(b *testing.B) {
	for _, window := range []int{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("window-%d", window), func(b *testing.B) {
			w := newStreamWorkload(benchSeed, window, 2*window)
			m := w.prefilledNumeric(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := window + i%window
				m.Insert(w.X[j], w.Y[j])
			}
		})
	}
}

// verdictSink keeps the benchmarked verdicts live.
var verdictSink Verdict

// BenchmarkNumericIngestBatch is the numeric shape of the ingest route:
// each op is one 256-record batch into a full window of 10,000, values
// rounded to four decimals as the end-to-end ingest workload sends them,
// plus one verdict.
func BenchmarkNumericIngestBatch(b *testing.B) {
	const window, batch = 10000, 256
	rng := rand.New(rand.NewSource(benchSeed))
	round4 := func(v float64) float64 { return math.Round(v*1e4) / 1e4 }
	xs := make([]float64, 2*window+batch)
	ys := make([]float64, len(xs))
	for i := range xs {
		xs[i] = round4(rng.NormFloat64())
		ys[i] = round4(0.1*xs[i] + rng.NormFloat64())
	}
	m, err := NewNumericMonitor(naiveAlpha, false, window)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := m.InsertBatch(ctx, xs[:window], ys[:window]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := window + i*batch%window
		if _, err := m.InsertBatch(ctx, xs[j:j+batch], ys[j:j+batch]); err != nil {
			b.Fatal(err)
		}
		verdictSink = m.Verdict()
	}
}

// BenchmarkCategoricalInsertEvict is the categorical twin; the cell-delta
// path should be flat and allocation-free across window sizes.
func BenchmarkCategoricalInsertEvict(b *testing.B) {
	for _, window := range []int{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("window-%d", window), func(b *testing.B) {
			w := newStreamWorkload(benchSeed, window, 2*window)
			m := w.prefilledCategorical(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := window + i%window
				m.Insert(w.A[j], w.B[j])
			}
		})
	}
}
