package stream

import (
	"context"
	"math"
	"testing"

	"scoded/internal/stats"
)

// This file is the differential test harness for the incremental kernels:
// random insert/evict sequences — full window turnover, heavy ties,
// duplicate keys — where the incremental monitor must agree with a
// from-scratch recompute of the same window at every single step. Two
// oracles are used: a fresh monitor fed only the current window contents
// (exercising the eviction path against the insert-only path, which the
// batch-agreement tests already pin), and the independent batch statistics
// in internal/stats.

// numericOracle rebuilds a monitor from scratch over the window contents.
func numericOracle(t *testing.T, alpha float64, xs, ys []float64) *NumericMonitor {
	t.Helper()
	m, err := NewNumericMonitor(alpha, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		m.Insert(xs[i], ys[i])
	}
	return m
}

// checkNumericStep compares the incremental monitor against both oracles
// on the current window.
func checkNumericStep(t *testing.T, step int, m *NumericMonitor, xs, ys []float64) {
	t.Helper()
	fresh := numericOracle(t, 0.05, xs, ys)
	if got, want := m.PairSum(), fresh.PairSum(); got != want {
		t.Fatalf("step %d: incremental pair sum %v, fresh recompute %v (n=%d)", step, got, want, len(xs))
	}
	if diff := math.Abs(m.TauB() - fresh.TauB()); diff > 1e-12 {
		t.Fatalf("step %d: TauB differs from fresh recompute by %g", step, diff)
	}
	mv, fv := m.Verdict(), fresh.Verdict()
	if diff := math.Abs(mv.Statistic - fv.Statistic); diff > 1e-12 {
		t.Fatalf("step %d: z differs from fresh recompute by %g", step, diff)
	}
	if diff := math.Abs(mv.P - fv.P); diff > 1e-12 {
		t.Fatalf("step %d: p differs from fresh recompute by %g", step, diff)
	}
	if mv.N != fv.N || mv.Violated != fv.Violated {
		t.Fatalf("step %d: verdict (n=%d violated=%v) vs fresh (n=%d violated=%v)",
			step, mv.N, mv.Violated, fv.N, fv.Violated)
	}
	if len(xs) >= 2 {
		batch, err := stats.Kendall(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := m.PairSum(), float64(batch.Concordant-batch.Discordant); got != want {
			t.Fatalf("step %d: incremental pair sum %v, batch Kendall %v", step, got, want)
		}
		if diff := math.Abs(m.TauB() - batch.TauB); diff > 1e-12 {
			t.Fatalf("step %d: TauB differs from batch Kendall by %g", step, diff)
		}
	}
}

// categoricalG recomputes G directly from the window contents with the
// same marginal decomposition the monitor maintains, summed fresh.
func categoricalOracle(t *testing.T, alpha float64, xs, ys []string) *CategoricalMonitor {
	t.Helper()
	m, err := NewCategoricalMonitor(alpha, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		m.Insert(xs[i], ys[i])
	}
	return m
}

func checkCategoricalStep(t *testing.T, step int, m *CategoricalMonitor, xs, ys []string) {
	t.Helper()
	fresh := categoricalOracle(t, 0.05, xs, ys)
	if m.N() != fresh.N() {
		t.Fatalf("step %d: n=%d, fresh %d", step, m.N(), fresh.N())
	}
	g, fg := m.G(), fresh.G()
	if diff := math.Abs(g - fg); diff > 1e-12*(1+math.Abs(fg)) {
		t.Fatalf("step %d: G %v differs from fresh recompute %v by %g", step, g, fg, math.Abs(g-fg))
	}
	mv, fv := m.Verdict(), fresh.Verdict()
	if mv.DF != fv.DF {
		t.Fatalf("step %d: df %d, fresh %d", step, mv.DF, fv.DF)
	}
	if diff := math.Abs(mv.P - fv.P); diff > 1e-12 {
		t.Fatalf("step %d: p differs from fresh recompute by %g", step, diff)
	}
	// Violated is a threshold decision; only compare when p is clearly on
	// one side of alpha.
	if math.Abs(mv.P-0.05) > 1e-9 && mv.Violated != fv.Violated {
		t.Fatalf("step %d: violated=%v, fresh %v (p=%v)", step, mv.Violated, fv.Violated, mv.P)
	}
}

// maxFuzzOps caps fuzz sequence length: every step runs an O(n log n)
// batch recompute, so longer inputs add cost, not coverage.
const maxFuzzOps = 300

// numericFromBytes decodes fuzz bytes into a value stream over a small
// alphabet, forcing ties and duplicate (x, y) keys.
func numericFromBytes(data []byte) (xs, ys []float64) {
	n := len(data) / 2
	if n > maxFuzzOps {
		n = maxFuzzOps
	}
	for i := 0; i < n; i++ {
		bx, by := data[2*i], data[2*i+1]
		// 16 distinct x values, 8 distinct y values; the top bit of by
		// couples y to x so the statistic is non-null on some windows.
		x := float64(bx % 16)
		y := float64(by % 8)
		if by >= 128 {
			y = x + float64(by%4)
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

// FuzzNumericMonitorIncremental drives a windowed monitor through an
// arbitrary byte-derived stream and pins every step to the from-scratch
// oracles. The seeds replay the deterministic cases of stream_test.go:
// rank-correlated pairs, heavy ties, full window turnover.
func FuzzNumericMonitorIncremental(f *testing.F) {
	f.Add(uint8(8), []byte("seed-correlated-pairs-with-ties-0123456789"))
	f.Add(uint8(3), []byte{0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1}) // duplicate keys, tiny window
	f.Add(uint8(5), []byte{255, 255, 254, 200, 130, 7, 129, 6, 128, 5, 1, 1, 0, 0})
	f.Add(uint8(60), []byte("full-turnover full-turnover full-turnover full-turnover"))
	f.Fuzz(func(t *testing.T, window uint8, data []byte) {
		w := int(window%60) + 2
		m, err := NewNumericMonitor(0.05, false, w)
		if err != nil {
			t.Fatal(err)
		}
		xs, ys := numericFromBytes(data)
		var winX, winY []float64
		for i := range xs {
			m.Insert(xs[i], ys[i])
			winX = append(winX, xs[i])
			winY = append(winY, ys[i])
			if len(winX) > w {
				winX, winY = winX[1:], winY[1:]
			}
			checkNumericStep(t, i, m, winX, winY)
		}
	})
}

// FuzzCategoricalMonitorIncremental is the categorical twin, including the
// Kahan re-anchor boundary (sequences longer than anchorEvery mutations).
func FuzzCategoricalMonitorIncremental(f *testing.F) {
	f.Add(uint8(6), []byte("abcabcabcabcabc-mixed-levels-abcabc"))
	f.Add(uint8(2), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(uint8(40), []byte("anchor-boundary anchor-boundary anchor-boundary anchor!"))
	// An independent table at step 12, where the running sums left G at
	// 3.55e-15 against a fresh recompute's 0, and the χ² survival's
	// unbounded slope at 0 turned that into a p 4.76e-8 off.
	f.Add(uint8(4), []byte("000000002020801982121219890"))
	f.Fuzz(func(t *testing.T, window uint8, data []byte) {
		w := int(window%40) + 2
		m, err := NewCategoricalMonitor(0.05, false, w)
		if err != nil {
			t.Fatal(err)
		}
		levels := []string{"a", "b", "c", "d", "e"}
		n := len(data) / 2
		if n > maxFuzzOps {
			n = maxFuzzOps
		}
		var winX, winY []string
		for i := 0; i < n; i++ {
			x := levels[int(data[2*i])%len(levels)]
			y := levels[int(data[2*i+1])%len(levels)]
			m.Insert(x, y)
			winX = append(winX, x)
			winY = append(winY, y)
			if len(winX) > w {
				winX, winY = winX[1:], winY[1:]
			}
			checkCategoricalStep(t, i, m, winX, winY)
		}
	})
}

// TestNumericMonitorFullTurnoverDifferential drives many complete window
// turnovers (the rebuild-heavy regime) and checks every step.
func TestNumericMonitorFullTurnoverDifferential(t *testing.T) {
	const w = 24
	m, err := NewNumericMonitor(0.05, false, w)
	if err != nil {
		t.Fatal(err)
	}
	var winX, winY []float64
	// Deterministic stream with ties, duplicates and sign flips; 40 full
	// turnovers of a 24-wide window.
	for i := 0; i < 40*w; i++ {
		x := float64((i * 7) % 13)
		y := float64((i*5)%11) - float64(i%3)
		if i%4 == 0 {
			y = x // duplicate-key runs
		}
		m.Insert(x, y)
		winX = append(winX, x)
		winY = append(winY, y)
		if len(winX) > w {
			winX, winY = winX[1:], winY[1:]
		}
		checkNumericStep(t, i, m, winX, winY)
	}
}

// TestNumericInsertBatchRejectsNonFinite pins the all-or-nothing contract:
// a batch containing NaN or ±Inf is refused before any record lands, so
// the window's rank statistics are never poisoned.
func TestNumericInsertBatchRejectsNonFinite(t *testing.T) {
	m, err := NewNumericMonitor(0.05, false, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.InsertBatch(context.Background(), []float64{1, 2}, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	before := m.PairSum()
	for _, bad := range [][2][]float64{
		{{5, math.NaN()}, {6, 7}},
		{{5, 6}, {7, math.Inf(1)}},
		{{math.Inf(-1), 6}, {7, 8}},
	} {
		n, err := m.InsertBatch(context.Background(), bad[0], bad[1])
		if err == nil {
			t.Fatalf("InsertBatch(%v, %v) accepted non-finite input", bad[0], bad[1])
		}
		if n != 0 {
			t.Fatalf("non-finite batch inserted %d records; want 0 (all-or-nothing)", n)
		}
	}
	if m.N() != 2 || m.PairSum() != before {
		t.Fatalf("monitor state changed by rejected batches: n=%d", m.N())
	}
}
