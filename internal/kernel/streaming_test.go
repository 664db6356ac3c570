package kernel

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"scoded/internal/relation"
	"scoded/internal/stats"
	"scoded/internal/store"
)

// chunkOf renders rows [lo, hi) of rel as a self-contained segment whose
// categorical dictionaries list the chunk's values in reverse order of
// first occurrence, so dictionary codes carry no meaning across chunks.
func chunkOf(rel *relation.Relation, lo, hi int) *store.Segment {
	seg := &store.Segment{Rows: hi - lo}
	for _, name := range rel.Columns() {
		c := rel.MustColumn(name)
		col := store.SegmentColumn{Name: name, Kind: store.ColKindNumeric}
		if c.Kind == relation.Numeric {
			for i := lo; i < hi; i++ {
				col.Floats = append(col.Floats, c.Value(i))
			}
			seg.Cols = append(seg.Cols, col)
			continue
		}
		col.Kind = store.ColKindCategorical
		var seen []string
		for i := lo; i < hi; i++ {
			if v := c.StringAt(i); !contains(seen, v) {
				seen = append(seen, v)
			}
		}
		for i := len(seen) - 1; i >= 0; i-- {
			col.Dict = append(col.Dict, seen[i])
		}
		for i := lo; i < hi; i++ {
			for code, v := range col.Dict {
				if v == c.StringAt(i) {
					col.Codes = append(col.Codes, uint32(code))
				}
			}
		}
		seg.Cols = append(seg.Cols, col)
	}
	return seg
}

func contains(vs []string, v string) bool {
	for _, w := range vs {
		if w == v {
			return true
		}
	}
	return false
}

// TestFoldKeysMatchPartitionOf folds pairs conditioned on a numeric column
// holding -0 beside +0 and two NaN payloads, alone and composed with a
// categorical column, from chunks with disagreeing dictionaries. Stratum
// keys, sizes, codes and the tables built from them must be PartitionOf's,
// CodesFor's and FloatsFor's exactly.
func TestFoldKeysMatchPartitionOf(t *testing.T) {
	negZero := math.Copysign(0, -1)
	otherNaN := math.Float64frombits(0x7ff8000000000001)
	rel := relation.MustNew(
		relation.NewCategoricalColumn("C", []string{"a", "b", "a", "b", "a", "b", "a", "b", "a", "b", "a", "a"}),
		relation.NewNumericColumn("N", []float64{0, negZero, math.NaN(), otherNaN, 1.5, 0, negZero, 1.5, math.NaN(), 2, otherNaN, 0}),
		relation.NewCategoricalColumn("Y", []string{"u", "v", "v", "u", "w", "u", "v", "w", "u", "u", "v", "w"}),
		relation.NewNumericColumn("V", []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}),
	)
	cols := make([]StreamColumn, 0, rel.NumCols())
	for _, name := range rel.Columns() {
		cols = append(cols, StreamColumn{Name: name, Kind: rel.MustColumn(name).Kind})
	}
	streamer, err := NewStreamer(StreamSource{
		Columns: cols,
		Rows:    rel.NumRows(),
		Scan: func(_ context.Context, fn func(*store.Segment) error) error {
			for _, w := range [][2]int{{0, 5}, {5, 6}, {6, 12}} {
				if err := fn(chunkOf(rel, w[0], w[1])); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("NewStreamer: %v", err)
	}
	pairs := []StreamPair{
		{Z: []string{"N"}, X: "C", Y: "Y"},
		{Z: []string{"C", "N"}, X: "Y", Y: "V", Bins: 2},
		{Z: []string{"N", "C"}, X: "V", Y: "Y", Bins: 3},
		{X: "C", Y: "V", Bins: 2},
		{Z: []string{"C"}, X: "N", Y: "V", Bins: 3},
	}
	fold, err := streamer.Fold(context.Background(), pairs)
	if err != nil {
		t.Fatalf("Fold: %v", err)
	}
	for i, p := range pairs {
		keys, groups := []string{""}, map[string][]int{"": nil}
		if len(p.Z) > 0 {
			part := PartitionOf(rel, p.Z)
			keys, groups = part.Keys, part.Groups
		}
		if got := fold.Keys(i); !reflect.DeepEqual(got, keys) {
			t.Fatalf("pair %d keys %q, want %q", i, got, keys)
		}
		for s, k := range keys {
			rows := groups[k]
			if rows == nil {
				rows = make([]int, rel.NumRows())
				for r := range rows {
					rows[r] = r
				}
			}
			if got := fold.Size(i, s); got != len(rows) {
				t.Fatalf("pair %d stratum %q: size %d, want %d", i, k, got, len(rows))
			}
			xc, kx := CodesFor(rel, p.X, p.Bins, rows)
			yc, ky := CodesFor(rel, p.Y, p.Bins, rows)
			if got, want := stats.TableFromCodes(fold.Codes(i, s)), stats.TableFromCodes(xc, yc, kx, ky); !reflect.DeepEqual(got, want) {
				t.Fatalf("pair %d stratum %q: table %v, want %v", i, k, got, want)
			}
			if gx, gy, gkx, gky := fold.Codes(i, s); !reflect.DeepEqual(gx, xc) || !reflect.DeepEqual(gy, yc) || gkx != kx || gky != ky {
				t.Fatalf("pair %d stratum %q: codes %v %v (%d, %d), want %v %v (%d, %d)", i, k, gx, gy, gkx, gky, xc, yc, kx, ky)
			}
			if p.X == "N" && p.Y == "V" {
				gx, gy := fold.Floats(i, s)
				if wx, wy := FloatsFor(rel, p.X, rows), FloatsFor(rel, p.Y, rows); !sameBits(gx, wx) || !sameBits(gy, wy) {
					t.Fatalf("pair %d stratum %q: floats %v %v, want %v %v", i, k, gx, gy, wx, wy)
				}
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFoldBuffersColumnsOnce: a family over two conditioning lists holds
// each column its pairs read once, shared by both partitions, which add
// only their row indices. The fold's retained heap must stay within the
// bound DESIGN.md section 16 states, 8 bytes per row per numeric column
// read, 4 per categorical column read and 4 per conditioning list, give or
// take a quarter for slice growth; a copy of the columns per partition
// would need at least 72 bytes per row here. Rank views for τ then add 4
// per numeric column and conditioning list.
func TestFoldBuffersColumnsOnce(t *testing.T) {
	const rows = 1 << 16
	rng := rand.New(rand.NewSource(1))
	region := make([]string, rows)
	shift := make([]string, rows)
	grade := make([]string, rows)
	nums := make([][]float64, 4)
	for c := range nums {
		nums[c] = make([]float64, rows)
	}
	for i := 0; i < rows; i++ {
		region[i] = []string{"north", "south", "east", "west", "centre", "coast", "hills", "plain"}[rng.Intn(8)]
		shift[i] = []string{"early", "late", "night", "day", "swing"}[rng.Intn(5)]
		grade[i] = []string{"a", "b", "c"}[rng.Intn(3)]
		for c := range nums {
			nums[c][i] = rng.NormFloat64()
		}
	}
	rel := relation.MustNew(
		relation.NewCategoricalColumn("Region", region),
		relation.NewCategoricalColumn("Shift", shift),
		relation.NewCategoricalColumn("Grade", grade),
		relation.NewNumericColumn("N0", nums[0]),
		relation.NewNumericColumn("N1", nums[1]),
		relation.NewNumericColumn("N2", nums[2]),
		relation.NewNumericColumn("N3", nums[3]),
	)
	var chunks []*store.Segment
	for lo := 0; lo < rows; lo += 4096 {
		chunks = append(chunks, chunkOf(rel, lo, min(lo+4096, rows)))
	}
	cols := make([]StreamColumn, 0, rel.NumCols())
	for _, name := range rel.Columns() {
		cols = append(cols, StreamColumn{Name: name, Kind: rel.MustColumn(name).Kind})
	}
	streamer, err := NewStreamer(StreamSource{
		Columns: cols,
		Rows:    rows,
		Scan: func(_ context.Context, fn func(*store.Segment) error) error {
			for _, seg := range chunks {
				if err := fn(seg); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("NewStreamer: %v", err)
	}
	var pairs []StreamPair
	for _, z := range []string{"Region", "Shift"} {
		pairs = append(pairs,
			StreamPair{Z: []string{z}, X: "N0", Y: "N1"},
			StreamPair{Z: []string{z}, X: "N2", Y: "N3"},
			StreamPair{Z: []string{z}, X: "N0", Y: "N3", Bins: 4},
			StreamPair{Z: []string{z}, X: "Grade", Y: "N2", Bins: 4},
		)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fold, err := streamer.Fold(context.Background(), pairs)
	if err != nil {
		t.Fatalf("Fold: %v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(fold)
	runtime.KeepAlive(streamer) // and the chunks its scan serves
	perRow := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / rows
	if bound := 1.25 * (8*4 + 4*1 + 4*2); perRow > bound {
		t.Fatalf("fold retains %.1f bytes per row, want at most %.0f", perRow, bound)
	}
	t.Logf("fold retains %.1f bytes per row", perRow)

	// τ over every numeric pair adds one rank view per numeric column and
	// conditioning list, 4 bytes per row each: N0 to N3 under both lists.
	for i, p := range pairs {
		if p.X != "Grade" {
			for s := range fold.Keys(i) {
				fold.Ranks(i, s)
			}
		}
	}
	runtime.GC()
	runtime.GC() // the second empties sync.Pool's victim cache of ranking scratch
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(fold)
	runtime.KeepAlive(streamer) // and its chunks, through both readings
	perRow = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / rows
	if bound := 1.25 * (8*4 + 4*1 + 4*2 + 4*8); perRow > bound {
		t.Fatalf("fold and rank views retain %.1f bytes per row, want at most %.0f", perRow, bound)
	}
	t.Logf("fold and rank views retain %.1f bytes per row", perRow)
}

// TestFoldSharesRankViews: the pairs that read a numeric column under one
// conditioning list share its rank view per stratum, built once even when
// they ask at once, and the view is stats.DenseRanks of the pair's values.
func TestFoldSharesRankViews(t *testing.T) {
	rel := testRelation(t)
	pairs := []StreamPair{
		{Z: []string{"Z"}, X: "U", Y: "V"},
		{Z: []string{"Z"}, X: "V", Y: "U"},
		{X: "U", Y: "V"},
	}
	fold, err := chunkStreamer(t, rel, 64).Fold(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range pairs {
		for s := range fold.Keys(i) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fold.Ranks(i, s)
			}()
		}
	}
	wg.Wait()
	for s := range fold.Keys(0) {
		u, v := fold.Ranks(0, s)
		v1, u1 := fold.Ranks(1, s)
		if &u.Ranks[0] != &u1.Ranks[0] || &v.Ranks[0] != &v1.Ranks[0] {
			t.Errorf("stratum %d: pairs on one conditioning list built separate views", s)
		}
		x, y := fold.Floats(0, s)
		if !reflect.DeepEqual(u, stats.DenseRanks(x)) || !reflect.DeepEqual(v, stats.DenseRanks(y)) {
			t.Errorf("stratum %d: views differ from DenseRanks of the values", s)
		}
	}
	u, _ := fold.Ranks(2, 0)
	if u0, _ := fold.Ranks(0, 0); &u.Ranks[0] == &u0.Ranks[0] {
		t.Error("the marginal pair shares a stratum's view")
	}
}

// chunkStreamer streams rel in chunks of the given row count.
func chunkStreamer(t *testing.T, rel *relation.Relation, chunk int) *Streamer {
	t.Helper()
	cols := make([]StreamColumn, 0, rel.NumCols())
	for _, name := range rel.Columns() {
		cols = append(cols, StreamColumn{Name: name, Kind: rel.MustColumn(name).Kind})
	}
	st, err := NewStreamer(StreamSource{
		Columns: cols,
		Rows:    rel.NumRows(),
		Scan: func(_ context.Context, fn func(*store.Segment) error) error {
			for lo := 0; lo < rel.NumRows(); lo += chunk {
				if err := fn(chunkOf(rel, lo, min(lo+chunk, rel.NumRows()))); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("NewStreamer: %v", err)
	}
	return st
}
