//scoded:hotpath
package kernel

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"scoded/internal/relation"
	"scoded/internal/stats"
	"scoded/internal/store"
)

// The streaming build path (DESIGN.md section 16): a Streamer folds a
// dataset's store segments, or sub-segment windows of them, into
// per-stratum sufficient statistics without materializing a
// relation.Relation. Fold serves a whole constraint family from one scan.
// The pairs that share a conditioning list share one partition of the
// rows. A pair of two categorical columns counts into one contingency-table
// partial per stratum, online. Every other pair (Kendall, binned G, mixed)
// is gathered: the fold buffers each column such pairs read once, for all
// partitions — a numeric column's values, a categorical column's fold-wide
// codes, in row order — and a partition holding a gathered pair keeps each
// stratum's row indices. The pair's binned table or Kendall partial is
// built from the buffers on demand, one stratum at a time, and belongs to
// the caller. Beside the online tables the fold therefore holds 8 bytes per
// row per buffered numeric column, 4 per buffered categorical column and 4
// per gathering partition.
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
// chunk and dictionary code instead. The chunk's rows are grouped by
// stratum with a stable counting sort, and each stratum's run re-codes the
// online tables' columns through one flat slice indexed by dictionary code,
// in front of the stratum's first-occurrence coder, which sees each
// distinct value once per chunk.

// StreamColumn describes one column of a streamed dataset.
type StreamColumn struct {
	Name string
	Kind relation.Kind
}

// StreamSource describes a dataset that can be scanned as segment chunks.
// Scan must deliver every row exactly once, in row order, as
// self-contained segments (store.Scan or store.ScanChunks semantics).
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
// conditioning columns; an empty Z is one marginal stratum keyed "".
// Kendall pairs need numeric X and Y. The other pairs build contingency
// tables, binning numeric columns into Bins quantile bins per stratum.
type StreamPair struct {
	Z       []string
	X, Y    string
	Kendall bool
	Bins    int
}

// StreamFold holds the per-stratum statistics of every pair of one fold,
// indexed like the pairs Fold was given. It is read-only once Fold
// returns, so concurrent calls of its methods are safe.
type StreamFold struct {
	pairs []foldPair
	cols  []foldBuffer // per source column; filled for those gathered pairs read
}

// foldPair locates one pair's state.
type foldPair struct {
	part  *foldPartition
	x, y  int // source columns
	table int // index into each stratum's tables for an online pair, else -1
	bins  int
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
	z      []int            // source column indices of the conditioning list
	coded  []int            // source columns of the online tables, one coder slot each
	tables [][2]int         // coder slots of each online table's X and Y
	gather bool             // a pair gathers from the buffers: strata keep their rows
	index  map[string]int32 // stratum key → stratum id; dropped after the scan
	keys   []string         // key per stratum; sorted after the scan
	strata []foldStratum    // per stratum, in keys order
}

// foldStratum accumulates one stratum of a partition.
type foldStratum struct {
	size   int
	rows   []int32              // the stratum's rows, ascending, when the partition gathers
	coders []map[string]int32   // per coder slot: value → first-occurrence code
	tables []stats.TablePartial // per online table
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

// Fold scans the source once and folds every pair into per-stratum
// statistics. A scan error, a row-count mismatch with the source, or a pair
// naming a missing column (or a categorical Kendall column) fails the
// whole fold.
func (s *Streamer) Fold(ctx context.Context, pairs []StreamPair) (*StreamFold, error) {
	out := &StreamFold{pairs: make([]foldPair, len(pairs)), cols: make([]foldBuffer, len(s.src.Columns))}
	f := &folder{s: s, out: out}
	byZ := make(map[string]*foldPartition) //scoded:lint-ignore allochot one entry per conditioning list, built once per fold
	gathered := make([]bool, len(s.src.Columns))
	for i, p := range pairs {
		z := make([]int, len(p.Z))
		for j, name := range p.Z {
			c, err := s.column(name)
			if err != nil {
				return nil, err
			}
			z[j] = c
		}
		x, err := s.column(p.X)
		if err != nil {
			return nil, err
		}
		y, err := s.column(p.Y)
		if err != nil {
			return nil, err
		}
		xCat := s.src.Columns[x].Kind == relation.Categorical
		yCat := s.src.Columns[y].Kind == relation.Categorical
		if p.Kendall && (xCat || yCat) {
			return nil, fmt.Errorf("kernel: Kendall stream needs numeric columns, got %s %s", s.src.Columns[x].Kind, s.src.Columns[y].Kind)
		}
		zKey := strings.Join(p.Z, keySep)
		part := byZ[zKey]
		if part == nil {
			part = f.partition(z)
			byZ[zKey] = part
		}
		fp := foldPair{part: part, x: x, y: y, table: -1, bins: p.Bins}
		if xCat && yCat {
			fp.table = len(part.tables)
			part.tables = append(part.tables, [2]int{part.coder(x), part.coder(y)})
		} else {
			part.gather = true
			gathered[x], gathered[y] = true, true
		}
		out.pairs[i] = fp
	}
	reads := make([]bool, len(s.src.Columns))
	for _, part := range f.parts {
		if len(part.z) == 0 {
			part.stratum("") // the marginal stratum exists even over zero rows
		}
		for _, c := range part.z {
			reads[c] = true
		}
		for _, c := range part.coded {
			reads[c] = true
		}
	}
	for c, ok := range gathered {
		if !ok {
			continue
		}
		reads[c] = true
		f.gathered = append(f.gathered, c)
		b := &out.cols[c]
		if b.cat = s.src.Columns[c].Kind == relation.Categorical; b.cat {
			b.codes = make([]int32, 0, s.src.Rows)
			b.dict = make(map[string]int32) //scoded:lint-ignore allochot one dictionary per buffered column, built once per fold
		} else {
			b.floats = make([]float64, 0, s.src.Rows)
		}
	}
	if len(f.gathered) > 0 && s.src.Rows > math.MaxInt32 {
		return nil, fmt.Errorf("kernel: stream of %d rows overflows the fold's row indices", s.src.Rows)
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
		for _, c := range f.gathered {
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
	for _, c := range f.gathered {
		if b := &out.cols[c]; b.cat {
			b.k, b.dict = len(b.dict), nil
		}
	}
	for _, part := range f.parts {
		part.sortStrata()
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
func (f *StreamFold) Size(pair, s int) int { return f.pairs[pair].part.strata[s].size }

// Table returns pair i's contingency table over stratum s: the online
// counts of a categorical pair, or a table gathered from the buffered
// columns, numeric ones binned over the whole stratum. It is bit-identical
// to TableFromCodes over CodesFor of the resident stratum.
func (f *StreamFold) Table(pair, s int) stats.Table {
	p := f.pairs[pair]
	st := &p.part.strata[s]
	if p.table >= 0 {
		return st.tables[p.table].Table()
	}
	xc, kx := f.codes(p.x, p.bins, st.rows)
	yc, ky := f.codes(p.y, p.bins, st.rows)
	return stats.TableFromCodes(xc, yc, kx, ky)
}

// Kendall returns a fresh Kendall partial of pair i's values over stratum
// s. It is the caller's to test and drop.
func (f *StreamFold) Kendall(pair, s int) *stats.KendallPartial {
	p := f.pairs[pair]
	rows := p.part.strata[s].rows
	kp := stats.NewKendallPartial()
	kp.Append(gather(f.cols[p.x].floats, rows), gather(f.cols[p.y].floats, rows))
	return kp
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

// coder returns the coder slot of source column src, adding it on first
// use.
func (p *foldPartition) coder(src int) int {
	for i, c := range p.coded {
		if c == src {
			return i
		}
	}
	p.coded = append(p.coded, src)
	return len(p.coded) - 1
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
	st := foldStratum{coders: make([]map[string]int32, len(p.coded)), tables: make([]stats.TablePartial, len(p.tables))}
	for i := range st.coders {
		st.coders[i] = make(map[string]int32) //scoded:lint-ignore allochot one coder per stratum and online column, not per row
	}
	p.strata = append(p.strata, st)
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
	strata := make([]foldStratum, len(perm))
	for i, id := range perm {
		keys[i], strata[i] = p.keys[id], p.strata[id]
	}
	p.keys, p.strata, p.index = keys, strata, nil
}

// folder is one fold's scan state: the partitions and per-chunk scratch,
// reused across chunks so the fold allocates per stratum, not per row.
type folder struct {
	s        *Streamer
	out      *StreamFold
	parts    []*foldPartition
	gathered []int // source columns the gathered pairs read, buffered
	need     []int // source columns the fold reads
	at       []int // per source column: its index in the current chunk's Cols

	ids    []int32   // per row: stratum id
	count  []int32   // per stratum id: rows in the chunk, then run end
	runs   []int32   // strata touched by the chunk, in first-row order
	order  []int32   // chunk rows grouped by stratum
	remap  []int32   // dictionary code → code; -1 unless a loop is using it
	dense  [][]int32 // per coder slot: the run's stratum codes
	keyBuf []byte
}

// partition adds a partition over conditioning columns z.
func (f *folder) partition(z []int) *foldPartition {
	p := &foldPartition{z: z, index: make(map[string]int32)} //scoded:lint-ignore allochot one stratum index per conditioning list, built once per fold
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

// buffer appends the chunk's values of gathered column c to its buffer:
// numeric values as they are, categorical values as fold-wide codes.
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

// foldChunk folds one chunk, whose first row is row base of the scan, into
// partition p: every row joins its stratum, and each stratum's rows are
// folded as one run.
func (f *folder) foldChunk(p *foldPartition, seg *store.Segment, base int) {
	n := seg.Rows
	if n == 0 {
		return
	}
	ids := f.stratify(p, seg)
	// A stable counting sort: count[s] becomes run s's start, then its end.
	f.count = grow(f.count, len(p.strata))
	f.runs = f.runs[:0]
	for _, s := range ids {
		if f.count[s] == 0 {
			f.runs = append(f.runs, s)
		}
		f.count[s]++
	}
	pos := int32(0)
	for _, s := range f.runs {
		pos, f.count[s] = pos+f.count[s], pos
	}
	f.order = grow(f.order, n)
	for i, s := range ids {
		f.order[f.count[s]] = int32(i)
		f.count[s]++
	}
	start := int32(0)
	for _, s := range f.runs {
		end := f.count[s]
		f.foldRun(p, &p.strata[s], seg, base, f.order[start:end])
		f.count[s], start = 0, end
	}
}

// stratify returns every row's stratum id in p, adding strata as their
// keys first appear.
func (f *folder) stratify(p *foldPartition, seg *store.Segment) []int32 {
	f.ids = grow(f.ids, seg.Rows)
	ids := f.ids[:seg.Rows]
	switch {
	case len(p.z) == 0:
		clear(ids)
	case len(p.z) == 1 && seg.Cols[f.at[p.z[0]]].Kind == store.ColKindCategorical:
		col := &seg.Cols[f.at[p.z[0]]]
		tab := f.remapFor(len(col.Dict))
		for i, c := range col.Codes {
			s := tab[c]
			if s < 0 {
				s = f.stratumOf(p, seg, i)
				tab[c] = s
			}
			ids[i] = s
		}
		for _, c := range col.Codes {
			tab[c] = -1
		}
	default:
		for i := range ids {
			ids[i] = f.stratumOf(p, seg, i)
		}
	}
	return ids
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

// foldRun folds one stratum's rows of a chunk, given in row order: their
// scan row indices are kept if the partition gathers, and the online
// tables' columns are coded and counted.
func (f *folder) foldRun(p *foldPartition, st *foldStratum, seg *store.Segment, base int, rows []int32) {
	st.size += len(rows)
	if p.gather {
		st.rows = slices.Grow(st.rows, len(rows))
		for _, r := range rows {
			st.rows = append(st.rows, int32(base)+r)
		}
	}
	if len(f.dense) < len(p.coded) {
		f.dense = append(f.dense, make([][]int32, len(p.coded)-len(f.dense))...)
	}
	for ci, c := range p.coded {
		col := &seg.Cols[f.at[c]]
		remap := f.remapFor(len(col.Dict))
		f.dense[ci] = grow(f.dense[ci], len(rows))
		dense := f.dense[ci][:len(rows)]
		for i, r := range rows {
			dc := col.Codes[r]
			v := remap[dc]
			if v < 0 {
				v = firstCode(st.coders[ci], col.Dict[dc])
				remap[dc] = v
			}
			dense[i] = v
		}
		for _, r := range rows {
			remap[col.Codes[r]] = -1
		}
	}
	for ti, t := range p.tables {
		tp := &st.tables[ti]
		xs, ys := f.dense[t[0]][:len(rows)], f.dense[t[1]][:len(rows)]
		for i := range xs {
			tp.Observe(xs[i], ys[i])
		}
	}
}

// grow returns s with length at least n. Scratch lengths only ever grow,
// so the entries it exposes have never been written and are zero.
func grow(s []int32, n int) []int32 {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	out := make([]int32, n, 2*n)
	copy(out, s)
	return out
}
