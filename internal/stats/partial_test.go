package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestTablePartialMatchesTableFromCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(300) + 2
		kx := rng.Intn(6) + 1
		ky := rng.Intn(5) + 1
		x := make([]int32, n)
		y := make([]int32, n)
		for i := range x {
			x[i] = int32(rng.Intn(kx))
			y[i] = int32(rng.Intn(ky))
		}
		// Dims as a dense coder would report them: max observed code + 1.
		var mx, my int32
		for i := range x {
			if x[i] > mx {
				mx = x[i]
			}
			if y[i] > my {
				my = y[i]
			}
		}
		want := TableFromCodes(x, y, int(mx)+1, int(my)+1)

		p := &TablePartial{}
		for i := range x {
			p.Observe(x[i], y[i])
		}
		got := p.Table()
		if len(got) != len(want) {
			t.Fatalf("trial %d: kx %d want %d", trial, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("trial %d: ky %d want %d", trial, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("trial %d: cell (%d,%d) = %v want %v", trial, i, j, got[i][j], want[i][j])
				}
			}
		}

		// The online table must drive GTest to bit-identical output.
		gotG, gotErr := GTest(got)
		wantG, wantErr := GTest(want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: GTest err %v want %v", trial, gotErr, wantErr)
		}
		if gotErr == nil {
			if math.Float64bits(gotG.Statistic) != math.Float64bits(wantG.Statistic) ||
				math.Float64bits(gotG.P) != math.Float64bits(wantG.P) {
				t.Fatalf("trial %d: GTest got %+v want %+v", trial, gotG, wantG)
			}
		}
	}
}

func TestTablePartialGrowth(t *testing.T) {
	// Observations arriving in an order that forces both axes to regrow
	// repeatedly must land in the right cells.
	p := &TablePartial{}
	p.Observe(0, 0)
	p.Observe(5, 0)
	p.Observe(0, 7)
	p.Observe(5, 7)
	p.Observe(2, 3)
	tab := p.Table()
	if len(tab) != 6 || len(tab[0]) != 8 {
		t.Fatalf("dims (%d,%d) want (6,8)", len(tab), len(tab[0]))
	}
	for _, cell := range [][2]int{{0, 0}, {5, 0}, {0, 7}, {5, 7}, {2, 3}} {
		if tab[cell[0]][cell[1]] != 1 {
			t.Fatalf("cell %v = %v want 1", cell, tab[cell[0]][cell[1]])
		}
	}
	if n := tab.N(); n != 5 {
		t.Fatalf("table total %v want 5", n)
	}
}
