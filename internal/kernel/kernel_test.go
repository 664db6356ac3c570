package kernel

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"scoded/internal/relation"
	"scoded/internal/stats"
)

func testRelation(tb testing.TB) *relation.Relation {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	n := 200
	av := make([]string, n)
	zv := make([]string, n)
	uv := make([]float64, n)
	vv := make([]float64, n)
	for i := 0; i < n; i++ {
		av[i] = fmt.Sprintf("a%d", rng.Intn(4))
		zv[i] = fmt.Sprintf("z%d", rng.Intn(3))
		uv[i] = float64(rng.Intn(10))
		vv[i] = rng.NormFloat64()
	}
	d, err := relation.New(
		relation.NewCategoricalColumn("A", av),
		relation.NewCategoricalColumn("Z", zv),
		relation.NewNumericColumn("U", uv),
		relation.NewNumericColumn("V", vv),
	)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestSingleFlight pins the concurrency contract: many goroutines asking
// for one key run the compute exactly once and all observe its value.
func TestSingleFlight(t *testing.T) {
	d := testRelation(t)
	c := New(d)
	var computes atomic.Int64
	const goroutines = 32
	vals := make([]any, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals[g], _ = c.do(context.Background(), "k", func() (any, error) {
				computes.Add(1)
				return []int{1, 2, 3}, nil
			})
		}(g)
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(vals[g], vals[0]) {
			t.Fatalf("goroutine %d saw %v, others saw %v", g, vals[g], vals[0])
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != goroutines-1 || s.Entries != 1 {
		t.Fatalf("stats %+v, want 1 miss / %d hits / 1 entry", s, goroutines-1)
	}
}

// TestNilCache asserts a nil *Cache computes directly everywhere.
func TestNilCache(t *testing.T) {
	ctx := context.Background()
	d := testRelation(t)
	var c *Cache
	if c.Relation() != nil {
		t.Error("nil cache should have a nil relation")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("nil cache stats %+v, want zeros", s)
	}
	codes, k, _ := c.CodesContext(ctx, d, "A", 4, "", nil)
	wantCodes, wantK := CodesFor(d, "A", 4, nil)
	if k != wantK || !reflect.DeepEqual(codes, wantCodes) {
		t.Errorf("nil-cache Codes diverged from CodesFor")
	}
	if got, _ := c.do(context.Background(), "x", func() (any, error) { return 7, nil }); got != 7 {
		t.Errorf("nil-cache do returned %v", got)
	}
	// Each call recomputes: no memoization without a cache.
	n := 0
	c.do(context.Background(), "x", func() (any, error) { n++; return nil, nil })
	c.do(context.Background(), "x", func() (any, error) { n++; return nil, nil })
	if n != 2 {
		t.Errorf("nil cache memoized (%d computes, want 2)", n)
	}
}

// TestCachedArtifactsMatchDirect asserts every cached artifact equals its
// direct computation, for all rows and for a stratum subset.
func TestCachedArtifactsMatchDirect(t *testing.T) {
	ctx := context.Background()
	d := testRelation(t)
	c := New(d)

	part, err := c.PartitionContext(ctx, d, []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	direct := PartitionOf(d, []string{"Z"})
	// The cached partition additionally carries version stamps; the
	// structural content must match the direct computation exactly.
	if !reflect.DeepEqual(part.Cols, direct.Cols) || part.CacheKey != direct.CacheKey ||
		!reflect.DeepEqual(part.Groups, direct.Groups) || !reflect.DeepEqual(part.Keys, direct.Keys) {
		t.Fatalf("cached partition diverged")
	}
	if len(part.Keys) == 0 {
		t.Fatal("empty partition")
	}
	groupKey := part.Keys[0]
	rows := part.Groups[groupKey]
	rowsKey := part.StratumRowsKey(groupKey)

	for _, tc := range []struct {
		col     string
		rowsKey string
		rows    []int
	}{
		{"A", "", nil}, {"U", "", nil}, {"A", rowsKey, rows}, {"U", rowsKey, rows},
	} {
		codes, k, _ := c.CodesContext(ctx, d, tc.col, 4, tc.rowsKey, tc.rows)
		wantCodes, wantK := CodesFor(d, tc.col, 4, tc.rows)
		// Categorical codings must normalize bins away; ask again with a
		// different bin count and expect the same shared entry.
		if k != wantK || !reflect.DeepEqual(codes, wantCodes) {
			t.Errorf("Codes(%s, %q) diverged", tc.col, tc.rowsKey)
		}
	}
	table, kx, ky, _ := c.TableContext(ctx, d, "A", "Z", 4, "", nil)
	ac, akx := CodesFor(d, "A", 4, nil)
	zc, zky := CodesFor(d, "Z", 4, nil)
	wantTable := stats.TableFromCodes(ac, zc, akx, zky)
	if kx != akx || ky != zky || !reflect.DeepEqual(table, wantTable) {
		t.Errorf("Table diverged from TableFromCodes")
	}

	floats, _ := c.FloatsContext(ctx, d, "V", rowsKey, rows)
	want := FloatsFor(d, "V", rows)
	if !reflect.DeepEqual(floats, want) {
		t.Errorf("Floats diverged")
	}

	tau, err := c.KendallPrepContext(ctx, d, "U", "V", "", nil)
	if err != nil {
		t.Fatalf("Kendall: %v", err)
	}
	wantTau, err := stats.Kendall(FloatsFor(d, "U", nil), FloatsFor(d, "V", nil))
	if err != nil {
		t.Fatal(err)
	}
	if tau != wantTau {
		t.Errorf("cached Kendall %+v diverged from stats.Kendall %+v", tau, wantTau)
	}
}

// TestCategoricalBinsShareEntry asserts the bins key normalization: a
// categorical coding is bin-independent and must be memoized once.
func TestCategoricalBinsShareEntry(t *testing.T) {
	ctx := context.Background()
	d := testRelation(t)
	c := New(d)
	c.CodesContext(ctx, d, "A", 4, "", nil)
	before := c.Stats()
	c.CodesContext(ctx, d, "A", 9, "", nil)
	after := c.Stats()
	if after.Entries != before.Entries || after.Hits != before.Hits+1 {
		t.Errorf("bin counts split the categorical entry: %+v then %+v", before, after)
	}
	// A numeric column genuinely depends on bins and must not share.
	c.CodesContext(ctx, d, "U", 4, "", nil)
	mid := c.Stats()
	c.CodesContext(ctx, d, "U", 9, "", nil)
	final := c.Stats()
	if final.Entries == mid.Entries {
		t.Errorf("numeric codings with different bins shared an entry")
	}
}

// TestKendallPrepCachesErrors asserts deterministic validation errors are
// memoized with the entry rather than recomputed or lost.
func TestKendallPrepCachesErrors(t *testing.T) {
	ctx := context.Background()
	d := testRelation(t)
	c := New(d)
	rows := []int{0} // one observation: too small for tau
	_, err1 := c.KendallPrepContext(ctx, d, "U", "V", "part\x00#tiny", rows)
	if err1 == nil {
		t.Fatal("expected an error for a single observation")
	}
	_, err2 := c.KendallPrepContext(ctx, d, "U", "V", "part\x00#tiny", rows)
	if err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("cached error diverged: %v vs %v", err2, err1)
	}
	s := c.Stats()
	if s.Hits == 0 {
		t.Errorf("second lookup should hit, stats %+v", s)
	}
}

// TestKendallPrepReadsRankViews: τ counts on the columns' cached rank
// views, so a τ column caches its 4-byte ranks and no 8-byte values, and a
// second pair on the same column reuses its view.
func TestKendallPrepReadsRankViews(t *testing.T) {
	ctx := context.Background()
	d := testRelation(t)
	c := New(d)
	if _, err := c.KendallPrepContext(ctx, d, "U", "V", "", nil); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for key := range c.state.entries {
		kinds = append(kinds, key[:strings.IndexByte(key, 0)])
	}
	sort.Strings(kinds)
	if !reflect.DeepEqual(kinds, []string{"ranks", "ranks", "tau"}) {
		t.Fatalf("entries %v, want two ranks entries and a tau entry", kinds)
	}
	before := c.Stats()
	if _, err := c.KendallPrepContext(ctx, d, "V", "U", "", nil); err != nil {
		t.Fatal(err)
	}
	if after := c.Stats(); after.Hits != before.Hits+2 || after.Entries != before.Entries+1 {
		t.Errorf("the transposed pair should add one tau entry and hit both views: %+v then %+v", before, after)
	}
	view, err := c.RanksContext(ctx, d, "U", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := stats.DenseRanks(FloatsFor(d, "U", nil)); !reflect.DeepEqual(view, want) {
		t.Errorf("cached view %+v, want %+v", view, want)
	}
}
