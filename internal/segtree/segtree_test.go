package segtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// counter is the obvious O(n) oracle.
type counter []int64

func (c counter) query(l, r int) int64 {
	if l < 0 {
		l = 0
	}
	if r >= len(c) {
		r = len(c) - 1
	}
	var s int64
	for i := l; i <= r; i++ {
		s += c[i]
	}
	return s
}

func TestSegmentTreeAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		st := NewSegmentTree(n)
		fw := NewFenwick(n)
		oracle := make(counter, n)
		for op := 0; op < 200; op++ {
			if rng.Intn(2) == 0 {
				pos := rng.Intn(n)
				st.Insert(pos, 1)
				fw.Insert(pos, 1)
				oracle[pos]++
			} else {
				l := rng.Intn(n+2) - 1
				r := rng.Intn(n+2) - 1
				want := oracle.query(l, r)
				if st.Query(l, r) != want || fw.Query(l, r) != want {
					return false
				}
			}
		}
		total := oracle.query(0, n-1)
		return st.Total() == total && fw.Total() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCountBelowAbove(t *testing.T) {
	for _, mk := range []func(int) interface {
		Insert(int, int64)
		CountBelow(int) int64
		CountAbove(int) int64
		Total() int64
	}{
		func(n int) interface {
			Insert(int, int64)
			CountBelow(int) int64
			CountAbove(int) int64
			Total() int64
		} {
			return NewSegmentTree(n)
		},
		func(n int) interface {
			Insert(int, int64)
			CountBelow(int) int64
			CountAbove(int) int64
			Total() int64
		} {
			return NewFenwick(n)
		},
	} {
		tr := mk(10)
		for _, p := range []int{2, 5, 5, 9} {
			tr.Insert(p, 1)
		}
		if got := tr.CountBelow(5); got != 1 {
			t.Errorf("CountBelow(5) = %d, want 1", got)
		}
		if got := tr.CountAbove(5); got != 1 {
			t.Errorf("CountAbove(5) = %d, want 1", got)
		}
		if got := tr.CountBelow(0); got != 0 {
			t.Errorf("CountBelow(0) = %d", got)
		}
		if got := tr.CountAbove(9); got != 0 {
			t.Errorf("CountAbove(9) = %d", got)
		}
		if got := tr.Total(); got != 4 {
			t.Errorf("Total = %d", got)
		}
	}
}

func TestInsertOutOfRangePanics(t *testing.T) {
	st := NewSegmentTree(4)
	fw := NewFenwick(4)
	for _, f := range []func(){
		func() { st.Insert(-1, 1) },
		func() { st.Insert(4, 1) },
		func() { fw.Insert(-1, 1) },
		func() { fw.Insert(4, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range insert")
				}
			}()
			f()
		}()
	}
}

func TestZeroSizeTreesClampToOne(t *testing.T) {
	st := NewSegmentTree(0)
	fw := NewFenwick(-3)
	st.Insert(0, 1)
	fw.Insert(0, 1)
	if st.Total() != 1 || fw.Total() != 1 {
		t.Error("clamped trees should still work at size 1")
	}
}

// pop removes and returns the heap's maximum through Peek and Remove, as
// the drill-down greedy loops do.
func pop(h *MaxHeap) (int, float64, bool) {
	id, p, ok := h.Peek()
	if ok {
		h.Remove(id)
	}
	return id, p, ok
}

func TestMaxHeapBasicOrdering(t *testing.T) {
	h := NewMaxHeap()
	h.Push(1, 5)
	h.Push(2, 9)
	h.Push(3, 1)
	if id, p, ok := h.Peek(); !ok || id != 2 || p != 9 {
		t.Errorf("Peek = %d/%v/%v", id, p, ok)
	}
	var got []int
	for h.Len() > 0 {
		id, _, _ := pop(h)
		got = append(got, id)
	}
	want := []int{2, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pop order = %v, want %v", got, want)
			break
		}
	}
	if _, _, ok := pop(h); ok {
		t.Error("pop on empty should report !ok")
	}
	if _, _, ok := h.Peek(); ok {
		t.Error("Peek on empty should report !ok")
	}
}

func TestMaxHeapUpdate(t *testing.T) {
	h := NewMaxHeap()
	for i := 0; i < 5; i++ {
		h.Push(i, float64(i))
	}
	h.Update(0, 100) // promote the minimum
	h.Update(4, -1)  // demote the maximum
	h.Update(99, 5)  // no-op on unknown id
	h.Push(2, 50)    // push of existing id acts as update
	id, p, _ := pop(h)
	if id != 0 || p != 100 {
		t.Errorf("first pop = %d/%v", id, p)
	}
	id, p, _ = pop(h)
	if id != 2 || p != 50 {
		t.Errorf("second pop = %d/%v, want 2/50", id, p)
	}
}

func TestMaxHeapRemoveAndContains(t *testing.T) {
	h := NewMaxHeap()
	for i := 0; i < 4; i++ {
		h.Push(i, float64(i))
	}
	h.Remove(3)
	h.Remove(99) // no-op
	if h.Contains(3) {
		t.Error("removed id still present")
	}
	if !h.Contains(2) {
		t.Error("id 2 should be present")
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d", h.Len())
	}
}

func TestMaxHeapDeterministicTieBreak(t *testing.T) {
	h := NewMaxHeap()
	h.Push(7, 1)
	h.Push(3, 1)
	h.Push(5, 1)
	var got []int
	for h.Len() > 0 {
		id, _, _ := pop(h)
		got = append(got, id)
	}
	if !sort.IntsAreSorted(got) {
		t.Errorf("equal priorities should pop in id order, got %v", got)
	}
}

func TestMaxHeapRandomAgainstSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 1
		h := NewMaxHeap()
		pri := make(map[int]float64, n)
		for i := 0; i < n; i++ {
			p := float64(rng.Intn(20))
			h.Push(i, p)
			pri[i] = p
		}
		// random updates
		for u := 0; u < n/2; u++ {
			id := rng.Intn(n)
			p := float64(rng.Intn(20))
			h.Update(id, p)
			pri[id] = p
		}
		prevP := float64(1 << 30)
		prevID := -1
		for h.Len() > 0 {
			id, p, _ := pop(h)
			if pri[id] != p {
				return false
			}
			if p > prevP || (p == prevP && id < prevID) {
				return false
			}
			prevP, prevID = p, id
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
