package detect

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scoded/internal/kernel"
	"scoded/internal/relation"
	"scoded/internal/sc"
)

// Fuzz flags select hostile shapes in the generated relation.
const (
	pathsNaN  = 1 << iota // a NaN in N2 (poisons Kendall over it)
	pathsNaN0             // a NaN in N0 (discretized by the mixed G-test too)
	pathsTies             // small-integer numeric columns: heavy ties
	pathsRare             // a stratum below the default MinStratumSize
)

// pathsRelation builds a small mixed-kind relation over the streamFamily
// columns from the fuzz inputs.
func pathsRelation(seed int64, n int, flags uint8) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	regions := 1 + rng.Intn(4)
	region := make([]string, n)
	c0 := make([]string, n)
	c1 := make([]string, n)
	n0 := make([]float64, n)
	n1 := make([]float64, n)
	n2 := make([]float64, n)
	for i := 0; i < n; i++ {
		region[i] = fmt.Sprintf("r%d", rng.Intn(regions))
		c0[i] = fmt.Sprintf("v%d", rng.Intn(4))
		if rng.Float64() < 0.4 {
			c1[i] = c0[i]
		} else {
			c1[i] = fmt.Sprintf("v%d", rng.Intn(4))
		}
		n0[i] = rng.NormFloat64() * 10
		n1[i] = n0[i]*0.3 + rng.NormFloat64()
		n2[i] = rng.NormFloat64()
		if flags&pathsTies != 0 {
			n0[i] = float64(rng.Intn(3))
			n1[i] = math.Round(n1[i] / 4)
			n2[i] = float64(rng.Intn(2))
		}
	}
	if flags&pathsRare != 0 {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			region[rng.Intn(n)] = "rare"
		}
	}
	if flags&pathsNaN != 0 {
		n2[rng.Intn(n)] = math.NaN()
	}
	if flags&pathsNaN0 != 0 {
		n0[rng.Intn(n)] = math.NaN()
	}
	return relation.MustNew(
		relation.NewCategoricalColumn("Region", region),
		relation.NewCategoricalColumn("C0", c0),
		relation.NewCategoricalColumn("C1", c1),
		relation.NewNumericColumn("N0", n0),
		relation.NewNumericColumn("N1", n1),
		relation.NewNumericColumn("N2", n2),
	)
}

// pathsAutoExact is the method byte's AutoExact bit; its low bits pick the
// method.
const pathsAutoExact = 0x80

// FuzzCheckAllPaths is the cross-path differential harness. From the fuzz
// inputs it builds a small relation, stores it as a replace plus one append
// (a split the fuzzer chooses), and draws a family from the streamFamily
// shapes, checked by a fuzz-chosen method with or without AutoExact. Four
// runs must agree exactly with the resident CheckAllContext over the stored
// relation: CheckAllStream at a fuzz-chosen window size; the resident check
// of the pre-append rows advanced through AppendRows and Cache.Advance;
// and, with FDR control on, CheckAllStream against the resident FDR run.
func FuzzCheckAllPaths(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(0), uint8(30), uint16(0), uint8(0), uint8(Auto))
	f.Add(int64(2), uint8(90), uint8(7), uint8(11), uint16(0), uint8(pathsNaN|pathsRare), uint8(G|pathsAutoExact))
	f.Add(int64(3), uint8(40), uint8(1), uint8(39), uint16(0x0f3), uint8(pathsTies), uint8(Kendall|pathsAutoExact))
	f.Add(int64(4), uint8(120), uint8(5), uint8(1), uint16(0), uint8(pathsNaN0|pathsRare), uint8(Pearson))
	f.Add(int64(5), uint8(3), uint8(2), uint8(1), uint16(0x1ff), uint8(pathsTies|pathsRare|pathsNaN), uint8(Spearman))
	f.Add(int64(6), uint8(120), uint8(9), uint8(50), uint16(0x600), uint8(pathsTies), uint8(ExactG))
	f.Add(int64(7), uint8(100), uint8(3), uint8(20), uint16(0x602), uint8(pathsTies|pathsNaN0|pathsRare), uint8(ExactKendall))
	f.Add(int64(8), uint8(70), uint8(4), uint8(35), uint16(0), uint8(pathsTies|pathsRare), uint8(Auto|pathsAutoExact))
	f.Fuzz(func(t *testing.T, seed int64, rows, window, split uint8, pick uint16, flags, method uint8) {
		n := 2 + int(rows)%150
		cut := 1 + int(split)%(n-1)
		windowRows := int(window) % 17
		rel := pathsRelation(seed, n, flags)
		opts := Options{Method: Method(int(method&^pathsAutoExact) % 7), AutoExact: method&pathsAutoExact != 0, PermIters: 19}

		var family []sc.Approximate
		for i, a := range streamFamily() {
			if pick == 0 || pick&(1<<i) != 0 {
				family = append(family, a)
			}
		}
		if len(family) == 0 {
			family = streamFamily()
		}

		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		st := openTestStore(t)
		m1, err := st.Replace("w", rel.Subset(all[:cut]))
		if err != nil {
			t.Fatalf("Replace: %v", err)
		}
		head, _, err := st.Load("w")
		if err != nil {
			t.Fatalf("Load head: %v", err)
		}
		cache := kernel.NewAt(head, m1.Version)
		ctx := context.Background()
		if _, err := CheckAllContext(ctx, head, family, BatchOptions{Options: withCache(opts, cache)}); err != nil {
			t.Fatalf("CheckAllContext before the append: %v", err)
		}
		tail := rel.Subset(all[cut:])
		m2, err := st.Append("w", tail)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		grown, err := head.AppendRows(tail)
		if err != nil {
			t.Fatalf("AppendRows: %v", err)
		}
		loaded, _, err := st.Load("w")
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		src, err := kernel.StoreSource(st, "w", windowRows)
		if err != nil {
			t.Fatalf("StoreSource: %v", err)
		}
		streamer, err := kernel.NewStreamer(src)
		if err != nil {
			t.Fatalf("NewStreamer: %v", err)
		}

		runs := func(fdr float64) (want, streamed []Result) {
			want, err := CheckAllContext(ctx, loaded, family, BatchOptions{Options: withCache(opts, kernel.New(loaded)), FDR: fdr})
			if err != nil {
				t.Fatalf("CheckAllContext (fdr %v): %v", fdr, err)
			}
			streamed, err = CheckAllStream(ctx, streamer, family, BatchOptions{Options: opts, FDR: fdr})
			if err != nil {
				t.Fatalf("CheckAllStream (fdr %v): %v", fdr, err)
			}
			return want, streamed
		}
		want, streamed := runs(0)
		advanced, err := CheckAllContext(ctx, grown, family, BatchOptions{Options: withCache(opts, cache.Advance(grown, m2.Version))})
		if err != nil {
			t.Fatalf("CheckAllContext after the append: %v", err)
		}
		wantFDR, streamedFDR := runs(0.1)
		for i, a := range family {
			label := fmt.Sprintf("n %d cut %d window %d method %s auto_exact %v constraint %d (%s)", n, cut, windowRows, opts.Method, opts.AutoExact, i, a.SC)
			requireSameTest(t, "streamed "+label, streamed[i], want[i])
			requireSameTest(t, "after append "+label, advanced[i], want[i])
			requireSameTest(t, "streamed fdr "+label, streamedFDR[i], wantFDR[i])
		}
	})
}
