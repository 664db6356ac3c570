package detect

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
	"scoded/internal/store"
)

// streamWorkload builds a mixed-kind relation with enough structure to
// exercise every streaming code path: dependent categorical pairs,
// correlated numeric pairs, a rare stratum below MinStratumSize, and a
// NaN-poisoned numeric column.
func streamWorkload(t *testing.T) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	const n = 400
	region := make([]string, n)
	c0 := make([]string, n)
	c1 := make([]string, n)
	n0 := make([]float64, n)
	n1 := make([]float64, n)
	n2 := make([]float64, n)
	for i := 0; i < n; i++ {
		region[i] = fmt.Sprintf("r%d", rng.Intn(8))
		if i < 3 {
			region[i] = "rare" // a stratum below the default MinStratumSize
		}
		c0[i] = fmt.Sprintf("v%d", rng.Intn(5))
		if rng.Float64() < 0.4 {
			c1[i] = c0[i] // induce dependence
		} else {
			c1[i] = fmt.Sprintf("v%d", rng.Intn(5))
		}
		n0[i] = rng.NormFloat64() * 10
		n1[i] = n0[i]*0.3 + rng.NormFloat64()
		n2[i] = rng.NormFloat64()
	}
	n2[137] = math.NaN() // poisons any Kendall over N2
	return relation.MustNew(
		relation.NewCategoricalColumn("Region", region),
		relation.NewCategoricalColumn("C0", c0),
		relation.NewCategoricalColumn("C1", c1),
		relation.NewNumericColumn("N0", n0),
		relation.NewNumericColumn("N1", n1),
		relation.NewNumericColumn("N2", n2),
	)
}

// storeStreamer persists rel into a fresh store as three segments and
// returns a Streamer reading it back in windows of windowRows.
func storeStreamer(t *testing.T, rel *relation.Relation, windowRows int) (*kernel.Streamer, *relation.Relation) {
	t.Helper()
	st := openTestStore(t)
	n := rel.NumRows()
	cut1, cut2 := n/3, 2*n/3
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	if _, err := st.Replace("w", rel.Subset(rows[:cut1])); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	for _, part := range [][]int{rows[cut1:cut2], rows[cut2:]} {
		if _, err := st.Append("w", rel.Subset(part)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	src, err := kernel.StoreSource(st, "w", windowRows)
	if err != nil {
		t.Fatalf("StoreSource: %v", err)
	}
	streamer, err := kernel.NewStreamer(src)
	if err != nil {
		t.Fatalf("NewStreamer: %v", err)
	}
	loaded, _, err := st.Load("w")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return streamer, loaded
}

func openTestStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return s
}

func requireSameTest(t *testing.T, label string, got, want Result) {
	t.Helper()
	if (got.Err == nil) != (want.Err == nil) {
		t.Fatalf("%s: Err %v, want %v", label, got.Err, want.Err)
	}
	if got.Err != nil {
		if got.Err.Error() != want.Err.Error() {
			t.Fatalf("%s: Err %q, want %q", label, got.Err, want.Err)
		}
		return
	}
	if got.Method != want.Method || got.Violated != want.Violated {
		t.Fatalf("%s: method/violated = %v/%v, want %v/%v", label, got.Method, got.Violated, want.Method, want.Violated)
	}
	requireSameStats(t, label, got.Test, want.Test)
	if len(got.Strata) != len(want.Strata) {
		t.Fatalf("%s: %d strata, want %d", label, len(got.Strata), len(want.Strata))
	}
	for i := range want.Strata {
		g, w := got.Strata[i], want.Strata[i]
		if g.Key != w.Key || g.Size != w.Size || g.Skipped != w.Skipped {
			t.Fatalf("%s stratum %d: %+v, want %+v", label, i, g, w)
		}
		requireSameStats(t, fmt.Sprintf("%s stratum %s", label, g.Key), g.Test, w.Test)
	}
	if len(got.Leaves) != len(want.Leaves) {
		t.Fatalf("%s: %d leaves, want %d", label, len(got.Leaves), len(want.Leaves))
	}
	for i := range want.Leaves {
		requireSameTest(t, fmt.Sprintf("%s leaf %d", label, i), got.Leaves[i], want.Leaves[i])
	}
}

// requireSameStats demands bit-level equality of every TestResult field:
// the streaming path's contract is exact float reproduction, not
// tolerance-level agreement.
func requireSameStats(t *testing.T, label string, got, want stats.TestResult) {
	t.Helper()
	if math.Float64bits(got.Statistic) != math.Float64bits(want.Statistic) ||
		math.Float64bits(got.P) != math.Float64bits(want.P) ||
		got.DF != want.DF || got.N != want.N || got.Approximate != want.Approximate {
		t.Fatalf("%s: test %+v, want %+v", label, got, want)
	}
}

func streamFamily() []sc.Approximate {
	parse := func(s string) sc.Approximate {
		a, err := sc.ParseApproximate(s)
		if err != nil {
			panic(err)
		}
		return a
	}
	return []sc.Approximate{
		parse("C0 _||_ C1 | Region @ 0.05"), // conditional G, cat x cat
		parse("N0 _||_ N1 | Region @ 0.05"), // conditional Kendall
		parse("C0 _||_ N0 | Region @ 0.05"), // conditional G, mixed kinds
		parse("C0 _||_ C1 @ 0.05"),          // marginal G
		parse("N0 _||_ N1 @ 0.05"),          // marginal Kendall
		{SC: sc.Independence([]string{"C0", "C1"}, []string{"N0"}, []string{"Region"}), Alpha: 0.05}, // set constraint, decomposed
		{SC: sc.Dependence([]string{"N0"}, []string{"N1"}, nil), Alpha: 0.05},                        // DSC direction
		parse("N0 _||_ N2 | Region @ 0.05"),                                                          // NaN-poisoned Kendall: errors
		parse("C0 _||_ Nope @ 0.05"),                                                                 // missing column: errors
		parse("C0 _||_ N1 | Region, C1 @ 0.05"),                                                      // two-column conditioning set
		parse("C0 _||_ C1 | N0 @ 0.05"),                                                              // numeric conditioning column
	}
}

// identityMethods lists every method, each with and without the AutoExact
// fallback. PermIters stays small so the permutation tests run quickly.
func identityMethods() []Options {
	var out []Options
	for _, m := range []Method{Auto, G, Kendall, Pearson, Spearman, ExactG, ExactKendall} {
		for _, autoExact := range []bool{false, true} {
			out = append(out, Options{Method: m, AutoExact: autoExact, PermIters: 19})
		}
	}
	return out
}

// TestCheckAllStreamIdentity pins the acceptance criterion: for every
// method, with and without AutoExact, the streamed family run is
// element-for-element bit-identical to the resident run, across chunk
// sizes that split strata mid-segment.
func TestCheckAllStreamIdentity(t *testing.T) {
	rel := streamWorkload(t)
	family := streamFamily()
	for _, windowRows := range []int{0, 1, 7, 1000} {
		streamer, loaded := storeStreamer(t, rel, windowRows)
		for _, o := range identityMethods() {
			want, err := CheckAllContext(context.Background(), loaded, family, BatchOptions{Options: withCache(o, kernel.New(loaded))})
			if err != nil {
				t.Fatalf("CheckAllContext: %v", err)
			}
			got, err := CheckAllStream(context.Background(), streamer, family, BatchOptions{Options: o})
			if err != nil {
				t.Fatalf("CheckAllStream: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("window %d %s: %d results, want %d", windowRows, o.Method, len(got), len(want))
			}
			for i := range want {
				requireSameTest(t, fmt.Sprintf("window %d method %s auto_exact %v constraint %d (%s)", windowRows, o.Method, o.AutoExact, i, family[i].SC), got[i], want[i])
			}
		}
	}
}

// withCache returns o reading through cache.
func withCache(o Options, cache *kernel.Cache) Options {
	o.Cache = cache
	return o
}

// TestCheckAllStreamFDRIdentity pins the BH post-pass on the streamed path.
func TestCheckAllStreamFDRIdentity(t *testing.T) {
	rel := streamWorkload(t)
	family := streamFamily()[:7] // drop the two error cases to keep both families populated
	streamer, loaded := storeStreamer(t, rel, 13)
	want, err := CheckAllContext(context.Background(), loaded, family,
		BatchOptions{Options: Options{Cache: kernel.New(loaded)}, FDR: 0.1})
	if err != nil {
		t.Fatalf("CheckAllContext: %v", err)
	}
	got, err := CheckAllStream(context.Background(), streamer, family, BatchOptions{FDR: 0.1})
	if err != nil {
		t.Fatalf("CheckAllStream: %v", err)
	}
	for i := range want {
		requireSameTest(t, fmt.Sprintf("constraint %d", i), got[i], want[i])
	}
}

// TestCheckAllStreamCancellation: a cancelled context yields per-constraint
// errors wrapping the context error, like the pool path's drain behavior.
func TestCheckAllStreamCancellation(t *testing.T) {
	rel := streamWorkload(t)
	streamer, _ := storeStreamer(t, rel, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := CheckAllStream(ctx, streamer, streamFamily()[:2], BatchOptions{})
	if err != nil {
		t.Fatalf("CheckAllStream: %v", err)
	}
	for i, r := range got {
		if r.Err == nil || !strings.Contains(r.Err.Error(), context.Canceled.Error()) {
			t.Fatalf("result %d: Err %v, want context cancellation", i, r.Err)
		}
	}
}

// TestCheckAllStreamReadsOneManifest: a source answers on the manifest it
// was built from. An append after StoreSource must not leak into the scan
// (nor make it disagree with the row count the source declared).
func TestCheckAllStreamReadsOneManifest(t *testing.T) {
	rel := streamWorkload(t)
	family := streamFamily()
	n := rel.NumRows()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	st := openTestStore(t)
	if _, err := st.Replace("w", rel.Subset(all[:n/2])); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	head, _, err := st.Load("w")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	src, err := kernel.StoreSource(st, "w", 7)
	if err != nil {
		t.Fatalf("StoreSource: %v", err)
	}
	if _, err := st.Append("w", rel.Subset(all[n/2:])); err != nil {
		t.Fatalf("Append: %v", err)
	}
	streamer, err := kernel.NewStreamer(src)
	if err != nil {
		t.Fatalf("NewStreamer: %v", err)
	}
	want, err := CheckAllContext(context.Background(), head, family, BatchOptions{Options: Options{Cache: kernel.New(head)}})
	if err != nil {
		t.Fatalf("CheckAllContext: %v", err)
	}
	got, err := CheckAllStream(context.Background(), streamer, family, BatchOptions{})
	if err != nil {
		t.Fatalf("CheckAllStream: %v", err)
	}
	for i := range want {
		requireSameTest(t, fmt.Sprintf("constraint %d (%s)", i, family[i].SC), got[i], want[i])
	}
}

// wrapScan returns a Streamer over src whose Scan runs through wrap.
func wrapScan(t *testing.T, src kernel.StreamSource, wrap func(ctx context.Context, fn func(*store.Segment) error) error) *kernel.Streamer {
	t.Helper()
	src.Scan = wrap
	streamer, err := kernel.NewStreamer(src)
	if err != nil {
		t.Fatalf("NewStreamer: %v", err)
	}
	return streamer
}

// storeSource persists rel as three segments and describes it as a
// StreamSource read in windows of windowRows.
func storeSource(t *testing.T, rel *relation.Relation, windowRows int) kernel.StreamSource {
	t.Helper()
	st := openTestStore(t)
	n := rel.NumRows()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if _, err := st.Replace("w", rel.Subset(all[:n/3])); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	for _, part := range [][]int{all[n/3 : 2*n/3], all[2*n/3:]} {
		if _, err := st.Append("w", rel.Subset(part)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	src, err := kernel.StoreSource(st, "w", windowRows)
	if err != nil {
		t.Fatalf("StoreSource: %v", err)
	}
	return src
}

// TestCheckAllStreamScansOnce: the whole family, every conditioning list
// and method included, is folded from a single scan.
func TestCheckAllStreamScansOnce(t *testing.T) {
	src := storeSource(t, streamWorkload(t), 13)
	scans := 0
	streamer := wrapScan(t, src, func(ctx context.Context, fn func(*store.Segment) error) error {
		scans++
		return src.Scan(ctx, fn)
	})
	if _, err := CheckAllStream(context.Background(), streamer, streamFamily(), BatchOptions{}); err != nil {
		t.Fatalf("CheckAllStream: %v", err)
	}
	if scans != 1 {
		t.Fatalf("CheckAllStream made %d scans, want 1", scans)
	}
}

// TestCheckAllStreamScanError: a scan that fails part-way fails every
// constraint it served with its error, while a constraint that never
// reached the scan keeps its own.
func TestCheckAllStreamScanError(t *testing.T) {
	src := storeSource(t, streamWorkload(t), 0)
	boom := errors.New("segment read failed")
	streamer := wrapScan(t, src, func(ctx context.Context, fn func(*store.Segment) error) error {
		chunks := 0
		return src.Scan(ctx, func(seg *store.Segment) error {
			if chunks++; chunks == 2 {
				return boom
			}
			return fn(seg)
		})
	})
	family := streamFamily()
	got, err := CheckAllStream(context.Background(), streamer, family, BatchOptions{})
	if err != nil {
		t.Fatalf("CheckAllStream: %v", err)
	}
	for i, r := range got {
		if family[i].SC.String() == sc.MustParse("C0 _||_ Nope").String() {
			if r.Err == nil || !strings.Contains(r.Err.Error(), `lacks column "Nope"`) {
				t.Fatalf("constraint %d (%s): Err %v, want its missing-column error", i, family[i].SC, r.Err)
			}
			continue
		}
		if !errors.Is(r.Err, boom) {
			t.Fatalf("constraint %d (%s): Err %v, want the scan error", i, family[i].SC, r.Err)
		}
	}
}

// TestCheckAllStreamAllocsFlat guards the fold against per-row allocation:
// a hundredfold larger dataset may cost only a few more allocations (the
// logarithmic growth of the per-stratum buffers), not more per row.
func TestCheckAllStreamAllocsFlat(t *testing.T) {
	family := streamFamily()[:2]
	allocs := func(n int) float64 {
		st := openTestStore(t)
		if _, err := st.Replace("w", pathsRelation(1, n, 0)); err != nil {
			t.Fatalf("Replace: %v", err)
		}
		src, err := kernel.StoreSource(st, "w", 0)
		if err != nil {
			t.Fatalf("StoreSource: %v", err)
		}
		streamer, err := kernel.NewStreamer(src)
		if err != nil {
			t.Fatalf("NewStreamer: %v", err)
		}
		return testing.AllocsPerRun(3, func() {
			res, err := CheckAllStream(context.Background(), streamer, family, BatchOptions{})
			if err != nil || res[0].Err != nil || res[1].Err != nil {
				t.Fatalf("CheckAllStream: %v %v", err, res)
			}
		})
	}
	small, large := allocs(200), allocs(20000)
	if large >= 1.5*small {
		t.Fatalf("CheckAllStream allocates %.0f times at 20000 rows and %.0f at 200: growth %.1fx, want under 1.5x", large, small, large/small)
	}
	t.Logf("allocations: %.0f at 200 rows, %.0f at 20000 rows", small, large)
}
