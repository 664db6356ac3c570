package kernel

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"scoded/internal/relation"
	"scoded/internal/stats"
	"scoded/internal/store"
)

// The streaming build path (DESIGN.md section 16): instead of requiring a
// materialized relation.Relation, a Streamer consumes a dataset as a
// sequence of store segments (or sub-segment windows) and accumulates
// per-stratum sufficient statistics — contingency-table partials for
// G-tests, Kendall concordance partials for tau — merging them across
// chunks. Coding mirrors CodesFor exactly: categorical values get dense
// codes in first-occurrence order over the stratum's rows (chunks arrive
// in row order, so the order is the same), and numeric columns destined
// for a contingency table are buffered per stratum so quantile bin edges
// are computed over the full stratum, just like the resident path. Group
// keys concatenate column values with the relation.RowKey separator, so
// stratum keys are byte-identical to PartitionOf's.

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

// StoreSource describes dataset name of st as a StreamSource: the schema and
// row count come from its current manifest, and Scan reads its segments in
// windows of at most windowRows rows (0 = whole segments).
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
			return st.ScanChunks(ctx, name, windowRows, fn)
		},
	}, nil
}

// Streamer runs per-constraint statistic passes over a StreamSource. It
// is stateless between runs and safe for sequential reuse.
type Streamer struct {
	src  StreamSource
	kind map[string]relation.Kind
}

// NewStreamer validates the source and returns a Streamer.
func NewStreamer(src StreamSource) (*Streamer, error) {
	if src.Scan == nil {
		return nil, fmt.Errorf("kernel: stream source has no scan function")
	}
	kind := make(map[string]relation.Kind, len(src.Columns))
	for _, c := range src.Columns {
		if _, dup := kind[c.Name]; dup {
			return nil, fmt.Errorf("kernel: stream source repeats column %q", c.Name)
		}
		kind[c.Name] = c.Kind
	}
	return &Streamer{src: src, kind: kind}, nil
}

// Rows is the dataset's total row count.
func (s *Streamer) Rows() int { return s.src.Rows }

// ColumnKind reports a column's kind and whether the column exists.
func (s *Streamer) ColumnKind(name string) (relation.Kind, bool) {
	k, ok := s.kind[name]
	return k, ok
}

// StreamStratum holds one stratum's finalized statistics: its row count
// and either a contingency table (table runs) or a Kendall partial
// (kendall runs).
type StreamStratum struct {
	Size    int
	Table   stats.Table
	Kendall *stats.KendallPartial
}

// StreamResult maps sorted stratum keys (relation.RowKey form, same bytes
// as Partition keys) to their statistics. A marginal run (no conditioning
// columns) has the single key "".
type StreamResult struct {
	Keys   []string
	Strata map[string]*StreamStratum
}

// streamPair is the per-run accumulator state shared by chunk processing.
type streamPair struct {
	z       []string
	x, y    string
	bins    int
	kendall bool

	strata map[string]*streamStratum
	order  []string // insertion order, sorted at finalize
	seen   int      // rows consumed, checked against src.Rows
}

// streamStratum accumulates one stratum. Exactly one representation is
// active per column, chosen by the run kind and column kinds.
type streamStratum struct {
	size int

	// G-test path: categorical columns code through a first-occurrence
	// coder; when both are categorical the table partial updates online,
	// otherwise dense codes / raw floats are buffered so numeric columns
	// can be quantile-binned over the whole stratum at finalize.
	coderX, coderY *streamCoder
	table          *stats.TablePartial
	codesX, codesY []int32
	bufX, bufY     []float64

	// Kendall path: the mergeable concordance partial, fed one chunk at a
	// time through the scratch slices below.
	kendall            *stats.KendallPartial
	scratchX, scratchY []float64
}

// streamCoder assigns dense int32 codes to categorical values in
// first-occurrence order — the same codes CodesFor computes over the
// stratum's row subset of a materialized relation.
type streamCoder struct {
	codes map[string]int32
	next  int32
}

func newStreamCoder() *streamCoder { return &streamCoder{codes: make(map[string]int32)} }

func (c *streamCoder) code(v string) int32 {
	if code, ok := c.codes[v]; ok {
		return code
	}
	code := c.next
	c.next++
	c.codes[v] = code
	return code
}

// RunTable streams one pass and accumulates per-stratum contingency
// tables of x versus y (numeric columns quantile-binned with `bins`),
// conditioned on z (empty z = one marginal stratum). The tables are
// bit-identical to TableFromCodes over CodesFor of a resident relation.
func (s *Streamer) RunTable(ctx context.Context, z []string, x, y string, bins int) (*StreamResult, error) {
	return s.run(ctx, &streamPair{z: z, x: x, y: y, bins: bins})
}

// RunKendall streams one pass and accumulates per-stratum Kendall
// concordance partials of numeric columns x and y conditioned on z.
func (s *Streamer) RunKendall(ctx context.Context, z []string, x, y string) (*StreamResult, error) {
	return s.run(ctx, &streamPair{z: z, x: x, y: y, kendall: true})
}

func (s *Streamer) run(ctx context.Context, p *streamPair) (*StreamResult, error) {
	for _, name := range append(append([]string(nil), p.z...), p.x, p.y) {
		if _, ok := s.kind[name]; !ok {
			return nil, fmt.Errorf("kernel: stream source has no column %q", name)
		}
	}
	if p.kendall {
		if s.kind[p.x] != relation.Numeric || s.kind[p.y] != relation.Numeric {
			return nil, fmt.Errorf("kernel: Kendall stream needs numeric columns, got %s %s", s.kind[p.x], s.kind[p.y])
		}
	}
	p.strata = make(map[string]*streamStratum)
	err := s.src.Scan(ctx, func(seg *store.Segment) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return s.consumeChunk(p, seg)
	})
	if err != nil {
		return nil, err
	}
	if p.seen != s.src.Rows {
		return nil, fmt.Errorf("kernel: stream delivered %d rows, source declares %d", p.seen, s.src.Rows)
	}
	return s.finalize(p)
}

// chunkAccessor reads one column of one chunk as group-key strings,
// categorical strings, or floats.
type chunkAccessor struct {
	col *store.SegmentColumn
}

func (s *Streamer) chunkColumn(seg *store.Segment, name string) (*store.SegmentColumn, error) {
	for i := range seg.Cols {
		if seg.Cols[i].Name != name {
			continue
		}
		c := &seg.Cols[i]
		wantCat := s.kind[name] == relation.Categorical
		if gotCat := c.Kind == store.ColKindCategorical; gotCat != wantCat {
			return nil, fmt.Errorf("kernel: stream chunk column %q is %s, schema says %s", name, c.Kind, s.kind[name])
		}
		return c, nil
	}
	return nil, fmt.Errorf("kernel: stream chunk lacks column %q", name)
}

// keyString renders row i of the column exactly as relation StringAt
// does, so streamed group keys match partition keys byte for byte.
func (a chunkAccessor) keyString(i int) string {
	if a.col.Kind == store.ColKindCategorical {
		return a.col.Dict[a.col.Codes[i]]
	}
	return relation.FormatFloat(a.col.Floats[i])
}

func (s *Streamer) consumeChunk(p *streamPair, seg *store.Segment) error {
	zCols := make([]chunkAccessor, len(p.z))
	for i, name := range p.z {
		c, err := s.chunkColumn(seg, name)
		if err != nil {
			return err
		}
		zCols[i] = chunkAccessor{col: c}
	}
	xCol, err := s.chunkColumn(seg, p.x)
	if err != nil {
		return err
	}
	yCol, err := s.chunkColumn(seg, p.y)
	if err != nil {
		return err
	}
	xCat := xCol.Kind == store.ColKindCategorical
	yCat := yCol.Kind == store.ColKindCategorical

	var touched []*streamStratum
	var keyBuf strings.Builder
	for i := 0; i < seg.Rows; i++ {
		keyBuf.Reset()
		for j := range zCols {
			if j > 0 {
				keyBuf.WriteByte('\x1f')
			}
			keyBuf.WriteString(zCols[j].keyString(i))
		}
		key := keyBuf.String()
		st, ok := p.strata[key]
		if !ok {
			st = s.newStratum(p, xCat, yCat)
			p.strata[key] = st
			p.order = append(p.order, key)
		}
		st.size++
		if p.kendall {
			if len(st.scratchX) == 0 {
				touched = append(touched, st)
			}
			st.scratchX = append(st.scratchX, xCol.Floats[i])
			st.scratchY = append(st.scratchY, yCol.Floats[i])
			continue
		}
		switch {
		case xCat && yCat:
			st.table.Observe(st.coderX.code(xCol.Dict[xCol.Codes[i]]), st.coderY.code(yCol.Dict[yCol.Codes[i]]))
		default:
			if xCat {
				st.codesX = append(st.codesX, st.coderX.code(xCol.Dict[xCol.Codes[i]]))
			} else {
				st.bufX = append(st.bufX, xCol.Floats[i])
			}
			if yCat {
				st.codesY = append(st.codesY, st.coderY.code(yCol.Dict[yCol.Codes[i]]))
			} else {
				st.bufY = append(st.bufY, yCol.Floats[i])
			}
		}
	}
	p.seen += seg.Rows

	// Fold this chunk's Kendall points into each touched stratum's partial
	// (one Append per stratum per chunk keeps the merge tree shallow).
	for _, st := range touched {
		st.kendall.Append(st.scratchX, st.scratchY)
		st.scratchX = st.scratchX[:0]
		st.scratchY = st.scratchY[:0]
	}
	return nil
}

func (s *Streamer) newStratum(p *streamPair, xCat, yCat bool) *streamStratum {
	st := &streamStratum{}
	if p.kendall {
		st.kendall = stats.NewKendallPartial()
		return st
	}
	if xCat {
		st.coderX = newStreamCoder()
	}
	if yCat {
		st.coderY = newStreamCoder()
	}
	if xCat && yCat {
		st.table = &stats.TablePartial{}
	}
	return st
}

// finalize sorts the stratum keys and materializes each stratum's
// statistic, quantile-binning any buffered numeric columns over the full
// stratum exactly as the resident CodesFor path does.
func (s *Streamer) finalize(p *streamPair) (*StreamResult, error) {
	res := &StreamResult{
		Keys:   append([]string(nil), p.order...),
		Strata: make(map[string]*StreamStratum, len(p.order)),
	}
	sort.Strings(res.Keys)
	for key, st := range p.strata {
		out := &StreamStratum{Size: st.size}
		if p.kendall {
			out.Kendall = st.kendall
			res.Strata[key] = out
			continue
		}
		if st.table != nil {
			out.Table = st.table.Table()
			res.Strata[key] = out
			continue
		}
		xCodes, kx := st.codesX, 0
		if st.coderX != nil {
			kx = int(st.coderX.next)
		} else {
			xCodes, kx = discretizeQuantile32(st.bufX, p.bins)
		}
		yCodes, ky := st.codesY, 0
		if st.coderY != nil {
			ky = int(st.coderY.next)
		} else {
			yCodes, ky = discretizeQuantile32(st.bufY, p.bins)
		}
		out.Table = stats.TableFromCodes(xCodes, yCodes, kx, ky)
		res.Strata[key] = out
	}
	return res, nil
}
