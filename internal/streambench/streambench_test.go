package streambench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scoded/internal/stream"
)

// TestNaiveAndIncrementalAgree pins the benchmark's two numeric variants
// to the same statistic on a small window — the baseline being raced must
// compute the same answer, or the speedup is meaningless.
func TestNaiveAndIncrementalAgree(t *testing.T) {
	const window, records = 256, 800
	w := NewWorkloadSize(3, window, records)
	m, err := stream.NewNumericMonitor(naiveAlpha, false, window)
	if err != nil {
		t.Fatal(err)
	}
	n := newNaiveNumericWindow(window)
	for i := 0; i < records; i++ {
		m.Insert(w.X[i], w.Y[i])
		res := n.insert(w.X[i], w.Y[i])
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
	w := NewWorkloadSize(4, window, records)
	m, err := stream.NewCategoricalMonitor(naiveAlpha, false, window)
	if err != nil {
		t.Fatal(err)
	}
	n := newNaiveCategoricalWindow(window)
	for i := 0; i < records; i++ {
		m.Insert(w.A[i], w.B[i])
		res := n.insert(w.AC[i], w.BC[i])
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
			w := NewWorkloadSize(1, window, 2*window)
			m := w.PrefilledNumeric()
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
var verdictSink stream.Verdict

// BenchmarkNumericIngestBatch is the numeric shape of the ingest route:
// each op is one 256-record batch into a full window of 10,000, values
// rounded to four decimals as the end-to-end ingest workload sends them,
// plus one verdict.
func BenchmarkNumericIngestBatch(b *testing.B) {
	const window, batch = 10000, 256
	rng := rand.New(rand.NewSource(1))
	round4 := func(v float64) float64 { return math.Round(v*1e4) / 1e4 }
	xs := make([]float64, 2*window+batch)
	ys := make([]float64, len(xs))
	for i := range xs {
		xs[i] = round4(rng.NormFloat64())
		ys[i] = round4(0.1*xs[i] + rng.NormFloat64())
	}
	m, err := stream.NewNumericMonitor(naiveAlpha, false, window)
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
			w := NewWorkloadSize(1, window, 2*window)
			m := w.PrefilledCategorical()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := window + i%window
				m.Insert(w.A[j], w.B[j])
			}
		})
	}
}
