package stats

// TablePartial is the online contingency table of the streamed detection
// path (DESIGN.md section 16): a fold observes one stratum's code pairs
// chunk by chunk, in row order, and Table then yields the table
// TableFromCodes builds over the resident stratum. The zero value is ready
// to use; dimensions grow to cover the largest codes observed. Counts are
// int64, so the float64 cells Table produces are exact integers,
// bit-identical to TableFromCodes' repeated increments.
type TablePartial struct {
	kx, ky int     // observed dimensions: max code + 1 per axis
	stride int     // allocated row width (>= ky)
	counts []int64 // row-major slab, len = allocated rows * stride
}

// Observe adds one (x, y) code pair. Codes must be non-negative dense
// codes.
func (p *TablePartial) Observe(x, y int32) {
	if x < 0 || y < 0 {
		panic("stats: TablePartial observed a negative code")
	}
	p.ensure(int(x)+1, int(y)+1)
	p.counts[int(x)*p.stride+int(y)]++
}

// ensure grows the slab so codes up to (kx-1, ky-1) are addressable,
// regridding rows when the column count outgrows the stride.
func (p *TablePartial) ensure(kx, ky int) {
	if ky > p.stride {
		stride := p.stride * 2
		if stride < ky {
			stride = ky
		}
		rows := len(p.counts) / max(p.stride, 1)
		if rows < kx {
			rows = kx
		}
		grown := make([]int64, rows*stride)
		for r := 0; r < p.kx; r++ {
			copy(grown[r*stride:r*stride+p.ky], p.counts[r*p.stride:r*p.stride+p.ky])
		}
		p.counts, p.stride = grown, stride
	}
	if kx*p.stride > len(p.counts) {
		rows := len(p.counts) / p.stride * 2
		if rows < kx {
			rows = kx
		}
		grown := make([]int64, rows*p.stride)
		copy(grown, p.counts)
		p.counts = grown
	}
	if kx > p.kx {
		p.kx = kx
	}
	if ky > p.ky {
		p.ky = ky
	}
}

// Table materializes the accumulated counts as a Table: TableFromCodes over
// the observed pairs, bit for bit.
func (p *TablePartial) Table() Table {
	t := NewTable(p.kx, p.ky)
	for x := 0; x < p.kx; x++ {
		for y := 0; y < p.ky; y++ {
			t[x][y] = float64(p.counts[x*p.stride+y])
		}
	}
	return t
}
