package drilldown

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"scoded/internal/relation"
	"scoded/internal/sc"
	"scoded/internal/stats"
)

// TestTauInitAndKcRoundsHandComputed pins Algorithm 2's init (§5.3) and the
// first two K^c rounds of §5.2 on six records small enough to check by
// hand, with one x tie (rows 3 and 5) and one y tie (rows 2 and 5):
//
//	row   0  1  2  3  4  5
//	x     3  1  4  2  5  2
//	y     4  2  3  1  5  3
//
// A pair is concordant (C, +1) when x and y order it the same way,
// discordant (D, -1) when they disagree, and tied (0) on equal x or equal
// y. Each record's contribution is its concordant-minus-discordant sum:
//
//	row 0: C1 D2 C3 C4 C5       = 4 - 1 = 3
//	row 1: C0 C2 D3 C4 C5       = 4 - 1 = 3
//	row 2: D0 C1 C3 C4, 5 tied  = 3 - 1 = 2
//	row 3: C0 D1 C2 C4, 5 tied  = 3 - 1 = 2
//	row 4: C0 C1 C2 C3 C5       = 5
//	row 5: C0 C1 C4, 2 3 tied   = 3
//
// They sum to 18 = 2(nc - nd): nc = 11, nd = 2, two tied pairs, C(6,2) = 15.
// So s = nc - nd = 9. The dense ranks are x - 1 and y - 1.
//
// For an ISC, K^c removes the worst-to-remove record: the one whose removal
// leaves |s - c| largest, the smallest c here. Round 1: rows 2 and 3 tie at
// c = 2; the lower position, row 2 = (4, 3), goes. Its pairs leave the
// survivors: row 0 loses D (3 → 4), rows 1, 3 and 4 lose C (3 → 2, 2 → 1,
// 5 → 4), and row 5's tied pair changes nothing (3). s = 9 - 2 = 7.
// Round 2: row 3 = (2, 1), c = 1, goes alone. Rows 0 and 4 lose C (4 → 3),
// row 1 loses D (2 → 3), row 5's x tie changes nothing (3); s = 7 - 1 = 6.
func TestTauInitAndKcRoundsHandComputed(t *testing.T) {
	x := []float64{3, 1, 4, 2, 5, 2}
	y := []float64{4, 2, 3, 1, 5, 3}
	recs := make([]tauRec, len(x))
	var scratch tauScratch
	scratch.initBenefits(recs, stats.DenseRanks(x), stats.DenseRanks(y))
	want := []tauRec{{2, 3, 3, 0}, {0, 1, 3, 1}, {3, 2, 2, 2}, {1, 0, 2, 3}, {4, 4, 5, 4}, {1, 2, 3, 5}}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("init: %+v\nwant %+v", recs, want)
	}

	st := &tauStratum{rows: []int{0, 1, 2, 3, 4, 5}, live: recs, alive: make([]bool, 6), s: 9}
	kc := direction{dependence: false, best: false}
	if score, ok := st.scan(kc); !ok || score != -2 { // |9-2| - |9|
		t.Fatalf("scan: score %v ok %v, want -2", score, ok)
	}
	for round, want := range []struct {
		row     int
		s       float64
		contrib map[int32]int32 // position -> contribution
	}{
		{2, 7, map[int32]int32{0: 4, 1: 2, 3: 1, 4: 4, 5: 3}},
		{3, 6, map[int32]int32{0: 3, 1: 3, 4: 3, 5: 3}},
	} {
		row, _, _ := st.take(kc)
		got := map[int32]int32{}
		for _, r := range st.live {
			got[r.pos] = r.c
		}
		if row != want.row || st.s != want.s || !reflect.DeepEqual(got, want.contrib) {
			t.Errorf("round %d: removed row %d, s = %v, contributions %v; want row %d, s = %v, %v",
				round+1, row, st.s, got, want.row, want.s, want.contrib)
		}
	}

	// Both greedy loops agree end to end: k = 4 keeps rows 0, 1, 4 and 5.
	d := relation.MustNew(relation.NewNumericColumn("X", x), relation.NewNumericColumn("Y", y))
	for name, drill := range map[string]func(*relation.Relation, sc.SC, int, Options) (Result, error){
		"TopK": TopK, "topKLinear": topKLinear,
	} {
		res, err := drill(d, sc.MustParse("X _||_ Y"), 4, Options{Strategy: Kc})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Rows, []int{0, 1, 4, 5}) || res.InitialStat != 9 || res.FinalStat != 6 {
			t.Errorf("%s: %+v, want rows [0 1 4 5], stat 9 -> 6", name, res)
		}
	}
}

// TestTauRejectsNaN: NaN has no rank, so a tau drill over a NaN refuses the
// column by name — from both greedy loops, in either column — instead of
// letting Algorithm 2's init and the greedy rounds disagree on its pairs.
func TestTauRejectsNaN(t *testing.T) {
	clean := []float64{2, 3, 1, 1, 4, 2}
	dirty := []float64{2, 1, math.NaN(), 4, 3, 5}
	for _, col := range []string{"X", "Y"} {
		x, y := dirty, clean
		if col == "Y" {
			x, y = clean, dirty
		}
		d := relation.MustNew(relation.NewNumericColumn("X", x), relation.NewNumericColumn("Y", y))
		for _, drill := range []func(*relation.Relation, sc.SC, int, Options) (Result, error){TopK, topKLinear} {
			_, err := drill(d, sc.MustParse("X _||_ Y"), 2, Options{})
			if err == nil || !strings.Contains(err.Error(), `column "`+col+`" contains NaN`) {
				t.Errorf("NaN in %s: err %v, want it named", col, err)
			}
		}
	}
}
