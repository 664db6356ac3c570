package segtree

// MaxHeap is an indexed max-priority-queue over dense non-negative item ids
// with float64 priorities. It supports Update (change an item's priority) in
// O(log n), which Algorithm 2 needs to refresh record benefits between
// selection rounds. Items can be removed; removed items are no longer
// tracked.
//
// The implementation is allocation-free in steady state: it hand-rolls
// sift-up/sift-down over two flat slices instead of going through
// container/heap, whose any-typed Push/Pop box one item per call, and tracks
// positions in a dense []int32 instead of a map — the drill-down greedy
// loops re-key tens of thousands of cells per run, and on the 20k-row
// benchmark the boxing alone accounted for ~2k allocations per drill.
type MaxHeap struct {
	ids  []int32   // heap order: ids[0] is the max item
	prio []float64 // parallel to ids
	pos  []int32   // item id -> index in ids, -1 when absent
}

// NewMaxHeap creates an empty indexed max-heap.
func NewMaxHeap() *MaxHeap {
	return &MaxHeap{}
}

// Len returns the number of items in the heap.
func (m *MaxHeap) Len() int { return len(m.ids) }

// index returns the heap position of id, or -1.
func (m *MaxHeap) index(id int) int {
	if id < 0 || id >= len(m.pos) {
		return -1
	}
	return int(m.pos[id])
}

// less reports whether heap slot i ranks strictly above slot j: higher
// priority first, equal priorities broken by the smaller id so experiment
// output stays reproducible.
func (m *MaxHeap) less(i, j int) bool {
	//scoded:lint-ignore floatcmp comparator tie-break needs exact equality for a total order
	if m.prio[i] != m.prio[j] {
		return m.prio[i] > m.prio[j]
	}
	return m.ids[i] < m.ids[j]
}

func (m *MaxHeap) swap(i, j int) {
	m.ids[i], m.ids[j] = m.ids[j], m.ids[i]
	m.prio[i], m.prio[j] = m.prio[j], m.prio[i]
	m.pos[m.ids[i]] = int32(i)
	m.pos[m.ids[j]] = int32(j)
}

func (m *MaxHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !m.less(i, parent) {
			return
		}
		m.swap(i, parent)
		i = parent
	}
}

func (m *MaxHeap) siftDown(i int) {
	n := len(m.ids)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		best := left
		if right := left + 1; right < n && m.less(right, left) {
			best = right
		}
		if !m.less(best, i) {
			return
		}
		m.swap(i, best)
		i = best
	}
}

// Push inserts an item with the given priority. Pushing an id already in the
// heap updates it instead. Ids must be non-negative; the position index is
// dense, so ids should be small ordinals (cell or stratum indices).
func (m *MaxHeap) Push(id int, priority float64) {
	if id < 0 {
		panic("segtree: MaxHeap ids must be non-negative")
	}
	if i := m.index(id); i >= 0 {
		m.updateAt(i, priority)
		return
	}
	if id >= len(m.pos) {
		grown := make([]int32, id+1+len(m.pos))
		for i := copy(grown, m.pos); i < len(grown); i++ {
			grown[i] = -1
		}
		m.pos = grown
	}
	m.ids = append(m.ids, int32(id))
	m.prio = append(m.prio, priority)
	m.pos[id] = int32(len(m.ids) - 1)
	m.siftUp(len(m.ids) - 1)
}

// updateAt re-prioritizes the item at heap slot i and restores heap order.
func (m *MaxHeap) updateAt(i int, priority float64) {
	m.prio[i] = priority
	m.siftUp(i)
	m.siftDown(i)
}

// Update changes the priority of an existing item. It is a no-op for ids not
// in the heap.
func (m *MaxHeap) Update(id int, priority float64) {
	if i := m.index(id); i >= 0 {
		m.updateAt(i, priority)
	}
}

// Peek returns the id and priority of the maximum item without removing it.
// ok is false when the heap is empty.
func (m *MaxHeap) Peek() (id int, priority float64, ok bool) {
	if len(m.ids) == 0 {
		return 0, 0, false
	}
	return int(m.ids[0]), m.prio[0], true
}

// removeAt deletes the item at heap slot i.
func (m *MaxHeap) removeAt(i int) {
	last := len(m.ids) - 1
	m.pos[m.ids[i]] = -1
	if i != last {
		m.ids[i] = m.ids[last]
		m.prio[i] = m.prio[last]
		m.pos[m.ids[i]] = int32(i)
	}
	m.ids = m.ids[:last]
	m.prio = m.prio[:last]
	if i != last {
		m.siftUp(i)
		m.siftDown(i)
	}
}

// Remove deletes an arbitrary item by id. It is a no-op for ids not in the
// heap.
func (m *MaxHeap) Remove(id int) {
	if i := m.index(id); i >= 0 {
		m.removeAt(i)
	}
}

// Contains reports whether the id is in the heap.
func (m *MaxHeap) Contains(id int) bool {
	return m.index(id) >= 0
}
