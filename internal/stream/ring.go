package stream

// pairRing is a FIFO ring of (x, y) string pairs backing the windowed
// CategoricalMonitor, replacing the seed-era
// `fifo = fifo[1:]` slice walk that leaked the backing array and
// reallocated on every window turnover.
type pairRing struct {
	buf   [][2]string
	head  int
	count int
}

func (r *pairRing) len() int { return r.count }

func (r *pairRing) push(p [2]string) {
	if r.count == len(r.buf) {
		r.grow()
	}
	i := r.head + r.count
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = p
	r.count++
}

func (r *pairRing) popFront() [2]string {
	p := r.buf[r.head]
	// Clear the slot so evicted strings are not pinned by the ring.
	r.buf[r.head] = [2]string{}
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.count--
	return p
}

func (r *pairRing) grow() {
	n := 2 * len(r.buf)
	if n < 8 {
		n = 8
	}
	buf := make([][2]string, n)
	for i := 0; i < r.count; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		buf[i] = r.buf[j]
	}
	r.buf, r.head = buf, 0
}
