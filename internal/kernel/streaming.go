//scoded:hotpath
package kernel

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"scoded/internal/relation"
	"scoded/internal/stats"
	"scoded/internal/store"
)

// The streaming build path (DESIGN.md section 16): a Streamer folds a
// dataset's store segments, or sub-segment windows of them, into
// per-stratum row sets without materializing a relation.Relation. Fold
// serves a whole constraint family from one scan. It buffers each column
// the family's pairs read once, for all pairs and conditioning lists — a
// numeric column's values, a categorical column's fold-wide codes, in row
// order — and the pairs that share a conditioning list share one partition
// of the rows, which keeps each stratum's row indices. A pair's codes or
// values over one stratum are gathered from the buffers on demand and
// belong to the caller. A numeric column's rank views, which τ counts on,
// are built per conditioning list and stratum on first use and shared by
// every pair that reads them. The fold therefore holds 8 bytes per row per
// numeric column read, 4 per categorical column read, 4 per conditioning
// list, and 4 per numeric column and conditioning list a τ pair reads.
//
// Everything reproduces the resident kernels bit for bit. Categorical
// values get dense codes in first-occurrence order over the stratum's rows
// (chunks arrive in row order), as CodesFor assigns them; numeric columns
// are quantile-binned over the whole stratum; and stratum keys are rendered
// with the relation.RowKey separator and relation.FormatFloat, so they are
// PartitionOf's keys byte for byte, NaN and ±0 included.
//
// A row reaches its stratum by rendering its key into a reused buffer and
// looking it up in the partition's stratum index; only a new stratum
// allocates. A partition on one categorical column renders a key once per
// chunk and dictionary code instead.

// StreamColumn describes one column of a streamed dataset.
type StreamColumn struct {
	Name string
	Kind relation.Kind
}

// StreamSource describes a dataset that can be scanned as segment chunks.
// Scan must deliver every row exactly once, in row order, as
// self-contained segments (store.ScanChunks semantics).
type StreamSource struct {
	Columns []StreamColumn
	Rows    int
	Scan    func(ctx context.Context, fn func(*store.Segment) error) error
}

// StoreSource describes dataset name of st as a StreamSource pinned to its
// current manifest: the schema and row count come from that manifest, and
// Scan reads exactly its segments, in windows of at most windowRows rows
// (0 = whole segments), however the dataset grows afterwards.
func StoreSource(st *store.Store, name string, windowRows int) (StreamSource, error) {
	m, err := st.Manifest(name)
	if err != nil {
		return StreamSource{}, err
	}
	cols := make([]StreamColumn, len(m.Schema))
	for i, c := range m.Schema {
		kind := relation.Numeric
		if c.Kind == store.ColKindCategorical {
			kind = relation.Categorical
		}
		cols[i] = StreamColumn{Name: c.Name, Kind: kind}
	}
	return StreamSource{
		Columns: cols,
		Rows:    m.Rows,
		Scan: func(ctx context.Context, fn func(*store.Segment) error) error {
			return st.ScanManifest(ctx, m, windowRows, fn)
		},
	}, nil
}

// Streamer folds constraint families over a StreamSource. It holds no
// state between folds and is safe for concurrent use.
type Streamer struct {
	src StreamSource
	col map[string]int // column name → index in src.Columns
}

// NewStreamer validates the source and returns a Streamer.
func NewStreamer(src StreamSource) (*Streamer, error) {
	if src.Scan == nil {
		return nil, fmt.Errorf("kernel: stream source has no scan function")
	}
	col := make(map[string]int, len(src.Columns)) //scoded:lint-ignore allochot one entry per column, built once per streamer
	for i, c := range src.Columns {
		if _, dup := col[c.Name]; dup {
			return nil, fmt.Errorf("kernel: stream source repeats column %q", c.Name)
		}
		col[c.Name] = i
	}
	return &Streamer{src: src, col: col}, nil
}

// Rows is the dataset's total row count.
func (s *Streamer) Rows() int { return s.src.Rows }

// ColumnKind reports a column's kind and whether the column exists.
func (s *Streamer) ColumnKind(name string) (relation.Kind, bool) {
	i, ok := s.col[name]
	if !ok {
		return 0, false
	}
	return s.src.Columns[i].Kind, true
}

// StreamPair is one stratified X/Y pair of a family fold. Z lists the
// conditioning columns; an empty Z is one marginal stratum keyed "". Codes
// bins a numeric X or Y into Bins quantile bins per stratum.
type StreamPair struct {
	Z    []string
	X, Y string
	Bins int
}

// StreamFold holds the per-stratum rows of every pair of one fold, indexed
// like the pairs Fold was given, and the columns they read. Once Fold
// returns, only the rank views change, each built once under its
// sync.Once, so concurrent calls of its methods are safe.
type StreamFold struct {
	pairs []foldPair
	cols  []foldBuffer // per source column; filled for those the pairs read
}

// foldPair locates one pair's state.
type foldPair struct {
	part *foldPartition
	x, y int // source columns
	bins int
}

// rankSlot is one numeric column's rank view over one stratum, built on
// first use.
type rankSlot struct {
	once sync.Once
	view stats.RankView
}

// foldBuffer is one source column over every row of the scan, in row
// order: a numeric column's values, or a categorical column's fold-wide
// codes, assigned in first-occurrence order.
type foldBuffer struct {
	cat    bool
	floats []float64
	codes  []int32
	dict   map[string]int32 // categorical value → fold-wide code; dropped after the scan
	k      int              // categorical: distinct values
}

// foldPartition is the scan's rows stratified on one conditioning list.
type foldPartition struct {
	z     []int            // source column indices of the conditioning list
	index map[string]int32 // stratum key → stratum id; dropped after the scan
	keys  []string         // key per stratum; sorted after the scan
	rows  [][]int32        // per stratum, in keys order: its rows, ascending
	ranks [][]rankSlot     // per source column its pairs read, if numeric: per stratum, its rank view
}

// firstCode returns v's code in m, assigning the next one on first sight:
// CodesFor's first-occurrence order.
func firstCode(m map[string]int32, v string) int32 {
	if code, ok := m[v]; ok {
		return code
	}
	code := int32(len(m))
	m[v] = code
	return code
}

// Fold scans the source once and stratifies every pair's rows. A scan
// error, a row-count mismatch with the source, or a pair naming a missing
// column fails the whole fold.
func (s *Streamer) Fold(ctx context.Context, pairs []StreamPair) (*StreamFold, error) {
	if len(pairs) > 0 && s.src.Rows > math.MaxInt32 {
		return nil, fmt.Errorf("kernel: stream of %d rows overflows the fold's row indices", s.src.Rows)
	}
	out := &StreamFold{pairs: make([]foldPair, len(pairs)), cols: make([]foldBuffer, len(s.src.Columns))}
	f := &folder{s: s, out: out}
	byZ := make(map[string]*foldPartition) //scoded:lint-ignore allochot one entry per conditioning list, built once per fold
	buffered := make([]bool, len(s.src.Columns))
	reads := make([]bool, len(s.src.Columns))
	for i, p := range pairs {
		z := make([]int, len(p.Z))
		for j, name := range p.Z {
			c, err := s.column(name)
			if err != nil {
				return nil, err
			}
			z[j] = c
			reads[c] = true
		}
		x, err := s.column(p.X)
		if err != nil {
			return nil, err
		}
		y, err := s.column(p.Y)
		if err != nil {
			return nil, err
		}
		zKey := strings.Join(p.Z, keySep)
		part := byZ[zKey]
		if part == nil {
			part = f.partition(z)
			byZ[zKey] = part
		}
		out.pairs[i] = foldPair{part: part, x: x, y: y, bins: p.Bins}
		buffered[x], buffered[y] = true, true
	}
	for c, ok := range buffered {
		if !ok {
			continue
		}
		reads[c] = true
		f.buffered = append(f.buffered, c)
		b := &out.cols[c]
		if b.cat = s.src.Columns[c].Kind == relation.Categorical; b.cat {
			b.codes = make([]int32, 0, s.src.Rows)
			b.dict = make(map[string]int32) //scoded:lint-ignore allochot one dictionary per buffered column, built once per fold
		} else {
			b.floats = make([]float64, 0, s.src.Rows)
		}
	}
	for c, ok := range reads {
		if ok {
			f.need = append(f.need, c)
		}
	}
	f.at = make([]int, len(s.src.Columns))

	seen := 0
	err := s.src.Scan(ctx, func(seg *store.Segment) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := f.bind(seg); err != nil {
			return err
		}
		for _, c := range f.buffered {
			f.buffer(c, seg)
		}
		for _, part := range f.parts {
			f.foldChunk(part, seg, seen)
		}
		seen += seg.Rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	if seen != s.src.Rows {
		return nil, fmt.Errorf("kernel: stream delivered %d rows, source declares %d", seen, s.src.Rows)
	}
	for _, c := range f.buffered {
		if b := &out.cols[c]; b.cat {
			b.k, b.dict = len(b.dict), nil
		}
	}
	for _, part := range f.parts {
		part.sortStrata()
	}
	for _, p := range out.pairs {
		for _, c := range [2]int{p.x, p.y} {
			if !out.cols[c].cat && p.part.ranks[c] == nil {
				p.part.ranks[c] = make([]rankSlot, len(p.part.rows))
			}
		}
	}
	return out, nil
}

func (s *Streamer) column(name string) (int, error) {
	c, ok := s.col[name]
	if !ok {
		return 0, fmt.Errorf("kernel: stream source has no column %q", name)
	}
	return c, nil
}

// Keys returns pair i's stratum keys in sorted order: relation.RowKey
// form, PartitionOf's keys byte for byte. A marginal pair has the single
// key "".
func (f *StreamFold) Keys(pair int) []string { return f.pairs[pair].part.keys }

// Size is the row count of stratum s (an index into Keys) of pair i.
func (f *StreamFold) Size(pair, s int) int { return len(f.pairs[pair].part.rows[s]) }

// Codes returns pair i's X and Y over stratum s as CodesFor codes them over
// the resident stratum, with their code counts: categorical values densely
// in first-occurrence order, numeric values binned into the pair's Bins
// quantile bins over the stratum. They are the caller's to test and drop.
func (f *StreamFold) Codes(pair, s int) (x, y []int32, kx, ky int) {
	p := f.pairs[pair]
	rows := p.part.rows[s]
	x, kx = f.codes(p.x, p.bins, rows)
	y, ky = f.codes(p.y, p.bins, rows)
	return x, y, kx, ky
}

// Floats returns pair i's X and Y values over stratum s, in row order:
// FloatsFor of the resident stratum. Both columns must be numeric. The
// values are the caller's to test and drop.
func (f *StreamFold) Floats(pair, s int) (x, y []float64) {
	p := f.pairs[pair]
	rows := p.part.rows[s]
	return gather(f.cols[p.x].floats, rows), gather(f.cols[p.y].floats, rows)
}

// Ranks returns pair i's X and Y rank views over stratum s:
// stats.DenseRanks of Floats. Each is built on first use, once per column,
// conditioning list and stratum, and shared by every pair that reads it,
// so callers must not mutate them. Both columns must be numeric.
func (f *StreamFold) Ranks(pair, s int) (x, y stats.RankView) {
	p := f.pairs[pair]
	return f.rankView(p.part, p.x, s), f.rankView(p.part, p.y, s)
}

// rankView returns numeric column c's view over stratum s of part, ranking
// it on first use.
func (f *StreamFold) rankView(part *foldPartition, c, s int) stats.RankView {
	slot := &part.ranks[c][s]
	slot.once.Do(func() { slot.view = stats.DenseRanks(gather(f.cols[c].floats, part.rows[s])) })
	return slot.view
}

// codes returns buffered column c over a stratum's rows as CodesFor codes
// them: categorical values densely in first-occurrence order, numeric
// values binned into bins quantile bins.
func (f *StreamFold) codes(c, bins int, rows []int32) ([]int32, int) {
	b := &f.cols[c]
	if !b.cat {
		return discretizeQuantile32(gather(b.floats, rows), bins)
	}
	remap := make([]int32, b.k)
	for i := range remap {
		remap[i] = -1
	}
	out := make([]int32, len(rows))
	next := int32(0)
	for i, r := range rows {
		g := b.codes[r]
		if remap[g] < 0 {
			remap[g] = next
			next++
		}
		out[i] = remap[g]
	}
	return out, int(next)
}

// gather returns vals at rows.
func gather(vals []float64, rows []int32) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = vals[r]
	}
	return out
}

// stratum returns the id of the stratum keyed key, creating it on first
// sight.
func (p *foldPartition) stratum(key string) int32 {
	if id, ok := p.index[key]; ok {
		return id
	}
	id := int32(len(p.keys))
	p.index[key] = id
	p.keys = append(p.keys, key)
	p.rows = append(p.rows, nil)
	return id
}

// sortStrata puts the strata in key order and drops the key index.
func (p *foldPartition) sortStrata() {
	perm := make([]int, len(p.keys))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return p.keys[perm[a]] < p.keys[perm[b]] })
	keys := make([]string, len(perm))
	rows := make([][]int32, len(perm))
	for i, id := range perm {
		keys[i], rows[i] = p.keys[id], p.rows[id]
	}
	p.keys, p.rows, p.index = keys, rows, nil
}

// folder is one fold's scan state: the partitions and per-chunk scratch,
// reused across chunks so the fold allocates per stratum, not per row.
type folder struct {
	s        *Streamer
	out      *StreamFold
	parts    []*foldPartition
	buffered []int // source columns the pairs read, buffered
	need     []int // source columns the fold reads
	at       []int // per source column: its index in the current chunk's Cols

	remap  []int32 // dictionary code → code or stratum id; -1 unless a loop is using it
	keyBuf []byte
}

// partition adds a partition over conditioning columns z. A marginal
// partition's one stratum exists even over zero rows, and holds every row.
func (f *folder) partition(z []int) *foldPartition {
	p := &foldPartition{z: z, index: make(map[string]int32), ranks: make([][]rankSlot, len(f.s.src.Columns))} //scoded:lint-ignore allochot one stratum index per conditioning list, built once per fold
	if len(z) == 0 {
		p.rows = [][]int32{make([]int32, 0, f.s.src.Rows)}
		p.keys = []string{""}
		p.index[""] = 0
	}
	f.parts = append(f.parts, p)
	return p
}

// bind locates every column the fold reads in the chunk and checks its
// kind against the source schema.
func (f *folder) bind(seg *store.Segment) error {
	for _, c := range f.need {
		sc := f.s.src.Columns[c]
		f.at[c] = -1
		for j := range seg.Cols {
			if seg.Cols[j].Name == sc.Name {
				f.at[c] = j
				break
			}
		}
		if f.at[c] < 0 {
			return fmt.Errorf("kernel: stream chunk lacks column %q", sc.Name)
		}
		col := &seg.Cols[f.at[c]]
		if gotCat := col.Kind == store.ColKindCategorical; gotCat != (sc.Kind == relation.Categorical) {
			return fmt.Errorf("kernel: stream chunk column %q is %s, schema says %s", sc.Name, col.Kind, sc.Kind)
		}
	}
	return nil
}

// remapFor returns the dictionary-code scratch for a dictionary of n
// entries, every entry -1. Each user resets the entries it sets.
func (f *folder) remapFor(n int) []int32 {
	for len(f.remap) < n {
		f.remap = append(f.remap, -1)
	}
	return f.remap[:n]
}

// buffer appends the chunk's values of column c to its buffer: numeric
// values as they are, categorical values as fold-wide codes.
func (f *folder) buffer(c int, seg *store.Segment) {
	b := &f.out.cols[c]
	col := &seg.Cols[f.at[c]]
	if !b.cat {
		b.floats = append(b.floats, col.Floats...)
		return
	}
	remap := f.remapFor(len(col.Dict))
	for _, dc := range col.Codes {
		v := remap[dc]
		if v < 0 {
			v = firstCode(b.dict, col.Dict[dc])
			remap[dc] = v
		}
		b.codes = append(b.codes, v)
	}
	for _, dc := range col.Codes {
		remap[dc] = -1
	}
}

// foldChunk appends each row of one chunk, whose first row is row base of
// the scan, to its stratum of partition p, adding strata as their keys
// first appear.
func (f *folder) foldChunk(p *foldPartition, seg *store.Segment, base int) {
	switch {
	case len(p.z) == 0:
		for i := 0; i < seg.Rows; i++ {
			p.rows[0] = append(p.rows[0], int32(base+i))
		}
	case len(p.z) == 1 && seg.Cols[f.at[p.z[0]]].Kind == store.ColKindCategorical:
		col := &seg.Cols[f.at[p.z[0]]]
		tab := f.remapFor(len(col.Dict))
		for i, c := range col.Codes {
			s := tab[c]
			if s < 0 {
				s = f.stratumOf(p, seg, i)
				tab[c] = s
			}
			p.rows[s] = append(p.rows[s], int32(base+i))
		}
		for _, c := range col.Codes {
			tab[c] = -1
		}
	default:
		for i := 0; i < seg.Rows; i++ {
			s := f.stratumOf(p, seg, i)
			p.rows[s] = append(p.rows[s], int32(base+i))
		}
	}
}

// stratumOf renders row i's stratum key — relation.RowKey's bytes — and
// returns the stratum's id in p.
func (f *folder) stratumOf(p *foldPartition, seg *store.Segment, i int) int32 {
	buf := f.keyBuf[:0]
	for j, zc := range p.z {
		if j > 0 {
			buf = append(buf, '\x1f')
		}
		col := &seg.Cols[f.at[zc]]
		if col.Kind == store.ColKindCategorical {
			buf = append(buf, col.Dict[col.Codes[i]]...)
		} else {
			buf = append(buf, relation.FormatFloat(col.Floats[i])...)
		}
	}
	f.keyBuf = buf
	if id, ok := p.index[string(buf)]; ok {
		return id
	}
	return p.stratum(string(buf))
}
