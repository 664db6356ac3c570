// The detect and oocore suites of `make bench` (BENCH_detect.json and
// BENCH_oocore.json), with the smoke tests that run their workloads under
// plain `go test ./...`, so CI catches compile or logic rot on the
// benchmark path without timing flakiness.
//
// This file is in the external test package: the suites drive detect
// through its exported API only, as the server does.
package detect_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scoded/internal/detect"
	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/store"
)

// The CheckAll workload is the shape the kernel cache targets, twenty or
// more constraints sharing attributes: every pair of seven categorical
// columns, conditioned on one shared stratification column, so partitions,
// codings and tables are recomputed per constraint without a cache and
// computed once with one.
const (
	benchSeed   = 1
	benchRows   = 20000
	benchCols   = 7   // pairwise → C(7,2) = 21 constraints
	benchLevels = 8   // categories per tested column
	benchStrata = 12  // categories of the shared conditioning column
	appendRows  = 200 // the append batch: small against benchRows, an ingest tick
	windowRows  = 2048
)

// checkWorkload is one reproducible CheckAll input: a relation plus a
// constraint family over it.
type checkWorkload struct {
	Rel    *relation.Relation
	Family []sc.Approximate
}

// newCheckWorkload builds the workload for a seed: seven 8-level
// categorical columns with mild pairwise dependence, one 12-level
// conditioning column, and the 21 constraints "Ci _||_ Cj | Region".
func newCheckWorkload(seed int64) *checkWorkload {
	rng := rand.New(rand.NewSource(seed))
	region := make([]string, benchRows)
	for i := range region {
		region[i] = fmt.Sprintf("r%d", rng.Intn(benchStrata))
	}
	cols := []*relation.Column{relation.NewCategoricalColumn("Region", region)}
	// Each column depends weakly on a shared latent value so the G tests do
	// real work (non-degenerate tables) while staying deterministic.
	latent := make([]int, benchRows)
	for i := range latent {
		latent[i] = rng.Intn(benchLevels)
	}
	for c := 0; c < benchCols; c++ {
		vals := make([]string, benchRows)
		for i := range vals {
			v := rng.Intn(benchLevels)
			if rng.Float64() < 0.25 {
				v = latent[i]
			}
			vals[i] = fmt.Sprintf("v%d", v)
		}
		cols = append(cols, relation.NewCategoricalColumn(fmt.Sprintf("C%d", c), vals))
	}
	var family []sc.Approximate
	for a := 0; a < benchCols; a++ {
		for b := a + 1; b < benchCols; b++ {
			family = append(family, sc.Approximate{
				SC:    sc.MustParse(fmt.Sprintf("C%d _||_ C%d | Region", a, b)),
				Alpha: 0.05,
			})
		}
	}
	return &checkWorkload{Rel: relation.MustNew(cols...), Family: family}
}

// appendBatch generates an append batch confined to a single stratum
// ("r0"): the incremental-invalidation best case, where every other
// stratum's cache entries stay warm across the append.
func appendBatch(seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	region := make([]string, appendRows)
	for i := range region {
		region[i] = "r0"
	}
	cols := []*relation.Column{relation.NewCategoricalColumn("Region", region)}
	for c := 0; c < benchCols; c++ {
		vals := make([]string, appendRows)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%d", rng.Intn(benchLevels))
		}
		cols = append(cols, relation.NewCategoricalColumn(fmt.Sprintf("C%d", c), vals))
	}
	return relation.MustNew(cols...)
}

// checkAll checks the family against rel on GOMAXPROCS workers, failing on
// any family or per-constraint error so a broken run is never timed.
func (w *checkWorkload) checkAll(tb testing.TB, rel *relation.Relation, cache *kernel.Cache) []detect.Result {
	tb.Helper()
	results, err := detect.CheckAll(rel, w.Family, detect.BatchOptions{Options: detect.Options{Cache: cache}})
	return mustResults(tb, results, err)
}

// checkStream checks the family through CheckAllStream.
func (w *checkWorkload) checkStream(tb testing.TB, str *kernel.Streamer) []detect.Result {
	tb.Helper()
	results, err := detect.CheckAllStream(context.Background(), str, w.Family, detect.BatchOptions{})
	return mustResults(tb, results, err)
}

func mustResults(tb testing.TB, results []detect.Result, err error) []detect.Result {
	tb.Helper()
	if err != nil {
		tb.Fatalf("CheckAll: %v", err)
	}
	for _, r := range results {
		if r.Err != nil {
			tb.Fatalf("constraint %s: %v", r.Constraint.SC, r.Err)
		}
	}
	return results
}

// BenchmarkSuiteDetect is the detect suite: checkall_cold runs with no
// cache, checkall_fresh_cache with a new cache built during the measured
// run, checkall_warm_cache with a populated one (scoded-serve re-checking a
// registered dataset), and checkall_after_append times the first checkall
// after a one-stratum append, with a cache warmed at version 1 and
// advanced across it off the clock; per-stratum versions keep every other
// stratum's entries warm.
func BenchmarkSuiteDetect(b *testing.B) {
	w := newCheckWorkload(benchSeed)
	b.Run("checkall_cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.checkAll(b, w.Rel, nil)
		}
	})
	b.Run("checkall_fresh_cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.checkAll(b, w.Rel, kernel.New(w.Rel))
		}
	})
	b.Run("checkall_warm_cache", func(b *testing.B) {
		cache := kernel.New(w.Rel)
		w.checkAll(b, w.Rel, cache)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.checkAll(b, w.Rel, cache)
		}
	})
	b.Run("checkall_after_append", func(b *testing.B) {
		grown, err := w.Rel.AppendRows(appendBatch(benchSeed + 1))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache := kernel.NewAt(w.Rel, 1)
			w.checkAll(b, w.Rel, cache)
			advanced := cache.Advance(grown, 2)
			b.StartTimer()
			w.checkAll(b, grown, advanced)
		}
	})
}

// storedWorkload persists the CheckAll workload into a store under dir as
// three segments (a replace and two appends), as an uploaded and twice
// appended dataset.
func storedWorkload(tb testing.TB, dir string) (*checkWorkload, *store.Store) {
	tb.Helper()
	w := newCheckWorkload(benchSeed)
	st, err := store.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	n := w.Rel.NumRows()
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	cut1, cut2 := n/2, 3*n/4
	if _, err := st.Replace("bench", w.Rel.Subset(rows[:cut1])); err != nil {
		tb.Fatal(err)
	}
	if _, err := st.Append("bench", w.Rel.Subset(rows[cut1:cut2])); err != nil {
		tb.Fatal(err)
	}
	m, err := st.Append("bench", w.Rel.Subset(rows[cut2:]))
	if err != nil {
		tb.Fatal(err)
	}
	if len(m.Segments) != 3 {
		tb.Fatalf("got %d segments, want 3", len(m.Segments))
	}
	return w, st
}

// streamer builds a kernel.Streamer over the stored dataset at the given
// window granularity (0 = whole segments).
func streamer(tb testing.TB, st *store.Store, window int) *kernel.Streamer {
	tb.Helper()
	src, err := kernel.StoreSource(st, "bench", window)
	if err != nil {
		tb.Fatal(err)
	}
	str, err := kernel.NewStreamer(src)
	if err != nil {
		tb.Fatal(err)
	}
	return str
}

// assertIdentical fails unless the streamed results match the resident
// ones bit for bit: the contract the oocore suite's ratios ride on.
func assertIdentical(tb testing.TB, resident, streamed []detect.Result) {
	tb.Helper()
	if len(resident) != len(streamed) {
		tb.Fatalf("%d streamed results, want %d", len(streamed), len(resident))
	}
	for i := range resident {
		a, b := resident[i].Test, streamed[i].Test
		if math.Float64bits(a.Statistic) != math.Float64bits(b.Statistic) ||
			math.Float64bits(a.P) != math.Float64bits(b.P) ||
			a.DF != b.DF || a.N != b.N ||
			resident[i].Violated != streamed[i].Violated {
			tb.Fatalf("constraint %d diverged: resident %+v, streamed %+v", i, a, b)
		}
	}
}

// BenchmarkSuiteOocore is the oocore suite (DESIGN.md §16): the CheckAll
// workload stored as three segments. checkall_resident is the steady
// state (relation and kernel cache in memory), checkall_materialize the
// lazy first touch (a store load plus an uncached checkall), and
// checkall_stream_segment and checkall_stream_window the streamed
// CheckAllStream over whole segments and 2048-row windows, what a dataset
// over the resident budget pays instead of materializing. Both streamed
// granularities must reproduce the resident results before timing begins.
func BenchmarkSuiteOocore(b *testing.B) {
	w, st := storedWorkload(b, b.TempDir())
	cache := kernel.New(w.Rel)
	resident := w.checkAll(b, w.Rel, cache)
	segments, windows := streamer(b, st, 0), streamer(b, st, windowRows)
	assertIdentical(b, resident, w.checkStream(b, segments))
	assertIdentical(b, resident, w.checkStream(b, windows))

	b.Run("checkall_resident", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.checkAll(b, w.Rel, cache)
		}
	})
	b.Run("checkall_materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rel, _, err := st.Load("bench")
			if err != nil {
				b.Fatal(err)
			}
			w.checkAll(b, rel, nil)
		}
	})
	b.Run("checkall_stream_segment", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.checkStream(b, segments)
		}
	})
	b.Run("checkall_stream_window", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.checkStream(b, windows)
		}
	})
}

// TestBenchWorkloadSmoke runs each detect variant once and asserts the
// cached runs reproduce the uncached results exactly on the full-size
// benchmark workload.
func TestBenchWorkloadSmoke(t *testing.T) {
	w := newCheckWorkload(benchSeed)
	cold := w.checkAll(t, w.Rel, nil)
	cache := kernel.New(w.Rel)
	fresh := w.checkAll(t, w.Rel, cache)
	warm := w.checkAll(t, w.Rel, cache)
	if !reflect.DeepEqual(cold, fresh) {
		t.Errorf("fresh-cache results differ from uncached")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm-cache results differ from uncached")
	}
	if s := cache.Stats(); s.Hits == 0 || s.Misses == 0 || s.Entries == 0 {
		t.Errorf("cache was not exercised: %+v", s)
	}
}

// TestStreamedMatchesResident pins the oocore suite's correctness gate
// without its timing loops: the stored workload checked resident, and
// streamed at whole segments, the suite's window and an odd window, must
// agree bit for bit.
func TestStreamedMatchesResident(t *testing.T) {
	w, st := storedWorkload(t, t.TempDir())
	resident := w.checkAll(t, w.Rel, nil)
	for _, window := range []int{0, windowRows, 613} {
		assertIdentical(t, resident, w.checkStream(t, streamer(t, st, window)))
	}
}
