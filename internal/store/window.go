package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Segment reads (DESIGN.md section 16): a SegmentReader verifies one
// segment's CRC with a single sequential pass, parses the header and
// per-column dictionaries into memory, and then serves arbitrary row
// windows [lo, hi) from the fixed-width code/float blocks. Only the
// dictionaries and one window are ever resident, so a single oversized
// segment never forces a full materialization. Every segment read goes
// through it: windowed scans, Load, LoadLog, Verify and Compact.

// crcChunkSize bounds the checksum buffer. A segment no larger than it is
// read in one call and served from that buffer; a larger one streams
// through it.
const crcChunkSize = 256 << 10

// headerChunkSize is the header cursor's read-ahead: enough for a
// dictionary of many short entries to cost few reads, small enough that
// the bytes it reads past a column header into the column's data block
// stay cheap.
const headerChunkSize = 16 << 10

// scanBuffers are the byte buffers one scan shares across its segments.
type scanBuffers struct {
	crc    []byte // the checksum pass; the whole segment when it fits
	header []byte // the header cursor's read-ahead
	window []byte // one column block of one window
}

// windowColumn is the in-memory header of one column block: everything
// except the fixed-width row data, plus where that data lives.
type windowColumn struct {
	name  string
	kind  string
	dict  []string // categorical only; shared read-only across windows
	off   int64    // segment offset of the first row's fixed-width datum
	width int64    // bytes per row: 4 (codes) or 8 (floats)
}

// SegmentReader serves row windows of one immutable segment. It is not
// safe for concurrent use; each scan owns its reader.
type SegmentReader struct {
	src   io.ReaderAt
	whole []byte // the segment's bytes when it was read in one call
	rows  int
	crc   uint32 // the segment's verified CRC-32
	cols  []windowColumn
	bufs  *scanBuffers
}

// newSegmentReader verifies the size-byte segment src holds and parses its
// header. The checksum is verified before any header byte is parsed, and
// every declared length is checked against the remaining input before it
// is used, so corrupt or adversarial bytes fail with an error instead of a
// panic or an absurd allocation (FuzzSegment pins that contract).
func newSegmentReader(src io.ReaderAt, size int64, bufs *scanBuffers) (*SegmentReader, error) {
	if size < int64(len(segmentMagic)+2+4+4+4) {
		return nil, fmt.Errorf("store: segment too short (%d bytes)", size)
	}
	if len(bufs.crc) == 0 {
		bufs.crc = make([]byte, min(size, crcChunkSize))
	}
	r := &SegmentReader{src: src, bufs: bufs}
	cur := headerCursor{src: src, limit: size - 4}
	if size <= int64(len(bufs.crc)) {
		r.whole = bufs.crc[:size]
		if err := readFull(src, r.whole, 0); err != nil {
			return nil, err
		}
		r.crc = crc32.ChecksumIEEE(r.whole[:size-4])
		if err := checkTrailer(r.whole[size-4:], r.crc); err != nil {
			return nil, err
		}
		cur.buf = r.whole[:size-4]
	} else {
		if cap(bufs.header) == 0 {
			bufs.header = make([]byte, 0, headerChunkSize)
		}
		cur.buf = bufs.header[:0]
		for off := int64(0); off < size-4; {
			chunk := bufs.crc[:min(int64(len(bufs.crc)), size-4-off)]
			if err := readFull(src, chunk, off); err != nil {
				return nil, err
			}
			r.crc = crc32.Update(r.crc, crc32.IEEETable, chunk)
			off += int64(len(chunk))
		}
		var trailer [4]byte
		if err := readFull(src, trailer[:], size-4); err != nil {
			return nil, err
		}
		if err := checkTrailer(trailer[:], r.crc); err != nil {
			return nil, err
		}
	}
	if err := r.parseHeader(&cur); err != nil {
		return nil, err
	}
	if r.whole == nil {
		bufs.header = cur.buf // keep any growth for the next segment
	}
	return r, nil
}

func checkTrailer(trailer []byte, crc uint32) error {
	if got := binary.LittleEndian.Uint32(trailer); got != crc {
		return fmt.Errorf("store: segment checksum mismatch (got %08x, want %08x)", got, crc)
	}
	return nil
}

// parseHeader reads the segment header and every column's header,
// repositioning the cursor past each column's data block.
func (r *SegmentReader) parseHeader(cur *headerCursor) error {
	magic, err := cur.next(4)
	if err != nil {
		return err
	}
	if string(magic) != segmentMagic {
		return fmt.Errorf("store: bad segment magic %q", magic)
	}
	format, err := cur.u16()
	if err != nil {
		return err
	}
	if format != segmentFormat {
		return fmt.Errorf("store: unsupported segment format %d", format)
	}
	ncols, err := cur.u32()
	if err != nil {
		return err
	}
	nrows, err := cur.u32()
	if err != nil {
		return err
	}
	// A column block is at least 3 bytes (empty name + kind); a categorical
	// column needs 4 bytes of dict count plus 4 per row; a numeric one 8
	// per row. Bound the declared counts by what the input could hold.
	if int64(ncols)*3 > cur.remaining() {
		return fmt.Errorf("store: segment declares %d columns in %d bytes", ncols, cur.remaining())
	}
	r.rows, r.cols = int(nrows), make([]windowColumn, 0, ncols)
	for ci := uint32(0); ci < ncols; ci++ {
		nameLen, err := cur.u16()
		if err != nil {
			return err
		}
		name, err := cur.next(int(nameLen))
		if err != nil {
			return err
		}
		col := windowColumn{name: string(name)}
		kind, err := cur.next(1)
		if err != nil {
			return err
		}
		switch kind[0] {
		case kindCategorical:
			col.kind, col.width = ColKindCategorical, 4
			dictN, err := cur.u32()
			if err != nil {
				return err
			}
			if int64(dictN)*4 > cur.remaining() {
				return fmt.Errorf("store: column %q declares %d dictionary entries in %d bytes", col.name, dictN, cur.remaining())
			}
			if col.dict, err = readDict(cur, dictN); err != nil {
				return err
			}
		case kindNumeric:
			col.kind, col.width = ColKindNumeric, 8
		default:
			return fmt.Errorf("store: column %q has unknown kind %d", col.name, kind[0])
		}
		if int64(nrows)*col.width > cur.remaining() {
			return fmt.Errorf("store: column %q declares %d rows in %d bytes", col.name, nrows, cur.remaining())
		}
		col.off = cur.off
		if err := cur.skip(int64(nrows) * col.width); err != nil {
			return err
		}
		r.cols = append(r.cols, col)
	}
	if cur.remaining() != 0 {
		return fmt.Errorf("store: %d trailing bytes after segment body", cur.remaining())
	}
	return nil
}

// readDict reads n dictionary entries (len uint32, bytes) as substrings of
// one allocation: a first pass measures them, a second copies them. A
// dictionary of thousands of short entries then costs one string
// allocation instead of thousands; an entry a relation keeps pins its
// segment's dictionary bytes, no more than the segment stores.
func readDict(cur *headerCursor, n uint32) ([]string, error) {
	start, total := cur.off, 0
	for i := uint32(0); i < n; i++ {
		vlen, err := cur.u32()
		if err != nil {
			return nil, err
		}
		if err := cur.skip(int64(vlen)); err != nil {
			return nil, err
		}
		total += int(vlen)
	}
	cur.off = start
	var sb strings.Builder
	sb.Grow(total)
	dict := make([]string, n)
	for i := range dict {
		vlen, err := cur.u32()
		if err != nil {
			return nil, err
		}
		v, err := cur.next(int(vlen))
		if err != nil {
			return nil, err
		}
		at := sb.Len()
		sb.Write(v)
		dict[i] = sb.String()[at:]
	}
	return dict, nil
}

// readWindowInto decodes rows [lo, hi) into seg, reusing the Codes and
// Floats slabs seg holds from a previous window whenever they are large
// enough, along with the scan's window buffer. A scan that decodes every
// window into one Segment therefore allocates per column, not per window.
func (r *SegmentReader) readWindowInto(lo, hi int, seg *Segment) error {
	if lo < 0 || hi > r.rows || lo > hi {
		return fmt.Errorf("store: window [%d,%d) out of segment rows [0,%d)", lo, hi, r.rows)
	}
	n := hi - lo
	if cap(seg.Cols) < len(r.cols) {
		seg.Cols = make([]SegmentColumn, len(r.cols))
	}
	seg.Rows, seg.Cols = n, seg.Cols[:len(r.cols)]
	for ci, c := range r.cols {
		start, need := c.off+int64(lo)*c.width, int64(n)*c.width
		var b []byte
		if r.whole != nil {
			b = r.whole[start : start+need]
		} else {
			if int64(cap(r.bufs.window)) < need {
				r.bufs.window = make([]byte, need)
			}
			b = r.bufs.window[:need]
			if err := readFull(r.src, b, start); err != nil {
				return fmt.Errorf("store: column %q window read: %w", c.name, err)
			}
		}
		col := &seg.Cols[ci]
		col.Name, col.Kind = c.name, c.kind
		if c.kind == ColKindCategorical {
			col.Dict, col.Floats = c.dict, col.Floats[:0]
			col.Codes = growSlab(col.Codes, n)
			for i := range col.Codes {
				code := binary.LittleEndian.Uint32(b[i*4:])
				if code >= uint32(len(c.dict)) {
					return fmt.Errorf("store: column %q code %d out of dictionary range %d", c.name, code, len(c.dict))
				}
				col.Codes[i] = code
			}
		} else {
			col.Dict, col.Codes = nil, col.Codes[:0]
			col.Floats = growSlab(col.Floats, n)
			for i := range col.Floats {
				col.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
			}
		}
	}
	return nil
}

// growSlab returns s resized to n, reallocating only when its capacity is
// short.
func growSlab[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// readFull fills p from src at off.
func readFull(src io.ReaderAt, p []byte, off int64) error {
	n, err := src.ReadAt(p, off)
	if n == len(p) {
		return nil // ReadAt may report io.EOF alongside the last byte
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// headerCursor is a bounds-checked sequential reader over a segment body
// (everything before the CRC trailer). buf holds the body's bytes from
// offset bufOff: the whole body when the segment was read in one call,
// otherwise the scan's read-ahead buffer, refilled from src when a read
// runs past it. Fixed-width fields are read without allocating.
type headerCursor struct {
	src    io.ReaderAt
	buf    []byte
	bufOff int64
	off    int64
	limit  int64
}

func (c *headerCursor) remaining() int64 { return c.limit - c.off }

// next returns the following n bytes, valid until the next call.
func (c *headerCursor) next(n int) ([]byte, error) {
	if n < 0 || int64(n) > c.remaining() {
		return nil, fmt.Errorf("store: truncated segment (need %d bytes, have %d)", n, c.remaining())
	}
	start := c.off - c.bufOff
	if start < 0 || start+int64(n) > int64(len(c.buf)) { // refill, also after a rewind
		if cap(c.buf) < n {
			c.buf = make([]byte, n)
		}
		c.buf = c.buf[:min(int64(cap(c.buf)), c.remaining())]
		if err := readFull(c.src, c.buf, c.off); err != nil {
			return nil, err
		}
		c.bufOff, start = c.off, 0
	}
	c.off += int64(n)
	return c.buf[start : start+int64(n)], nil
}

// skip repositions the cursor n bytes ahead without reading them.
func (c *headerCursor) skip(n int64) error {
	if n > c.remaining() {
		return fmt.Errorf("store: truncated segment (need %d bytes, have %d)", n, c.remaining())
	}
	c.off += n
	return nil
}

func (c *headerCursor) u16() (uint16, error) {
	b, err := c.next(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (c *headerCursor) u32() (uint32, error) {
	b, err := c.next(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// ScanChunks streams dataset name as row windows of at most maxRows rows
// each, in manifest segment order and row order within each segment. A
// window is delivered as a self-contained *Segment with its segment's
// dense dictionaries, and at most maxRows rows of column data are resident
// at a time even when one segment is oversized. maxRows <= 0 means one
// window per segment. The context is checked between windows.
//
// Every window is decoded into the slabs of the one before it, so fn must
// not retain the Segment or its Codes and Floats slices after it returns;
// it copies what it keeps. Dictionaries are never overwritten.
func (s *Store) ScanChunks(ctx context.Context, name string, maxRows int, fn func(*Segment) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	dir := filepath.Join(s.dir, datasetDir(name))
	m, err := readManifest(dir)
	if err != nil {
		return err
	}
	return scanManifestChunks(ctx, dir, m, maxRows, fn)
}

// ScanManifest is ScanChunks over exactly the segments m lists, whatever
// the dataset's current manifest says: a reader that recorded a manifest
// sees that snapshot's rows, even after later appends. Segments are
// immutable and appends only add files, so the snapshot stays readable
// until a replace or compaction deletes one of its segments; the scan then
// fails with an error naming the missing segment.
func (s *Store) ScanManifest(ctx context.Context, m *Manifest, maxRows int, fn func(*Segment) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return scanManifestChunks(ctx, filepath.Join(s.dir, datasetDir(m.Name)), m, maxRows, fn)
}

func scanManifestChunks(ctx context.Context, dir string, m *Manifest, maxRows int, fn func(*Segment) error) error {
	// The checksum buffer is sized once, for the largest segment the
	// manifest lists, so a scan of one big segment and many small ones
	// allocates it once.
	var largest int64
	for _, si := range m.Segments {
		largest = max(largest, si.Bytes)
	}
	bufs := &scanBuffers{crc: make([]byte, min(largest, crcChunkSize))}
	var seg Segment // decode slabs shared by every window of the scan
	for _, si := range m.Segments {
		if err := scanSegmentChunks(ctx, filepath.Join(dir, si.File), si, maxRows, bufs, &seg, fn); err != nil {
			return err
		}
	}
	return nil
}

// scanSegmentChunks opens one segment and feeds its windows to fn. Split
// out of scanManifestChunks so the file's Close is a straight defer rather
// than a defer in a loop.
func scanSegmentChunks(ctx context.Context, path string, si SegmentInfo, maxRows int, bufs *scanBuffers, seg *Segment, fn func(*Segment) error) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: segment %s is gone: the dataset was replaced, compacted or dropped after its manifest was read", si.File)
	}
	if err != nil {
		return fmt.Errorf("store: segment %s: %w", si.File, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: segment %s: %w", si.File, err)
	}
	r, err := newSegmentReader(f, fi.Size(), bufs)
	if err != nil {
		return fmt.Errorf("store: segment %s: %w", si.File, err)
	}
	if si.CRC != 0 && r.crc != si.CRC {
		return fmt.Errorf("store: segment %s was rewritten: the dataset was dropped and uploaded again after its manifest was read", si.File)
	}
	if r.rows != si.Rows {
		return fmt.Errorf("store: segment %s holds %d rows, manifest says %d", si.File, r.rows, si.Rows)
	}
	step := maxRows
	if step <= 0 {
		step = r.rows
	}
	for lo := 0; lo < r.rows; lo += step {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := r.readWindowInto(lo, min(lo+step, r.rows), seg); err != nil {
			return fmt.Errorf("store: segment %s: %w", si.File, err)
		}
		if err := fn(seg); err != nil {
			return err
		}
	}
	// An empty segment is still delivered, as one zero-row window, so
	// row-count accounting downstream sees every segment.
	if r.rows == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := r.readWindowInto(0, 0, seg); err != nil {
			return fmt.Errorf("store: segment %s: %w", si.File, err)
		}
		return fn(seg)
	}
	return nil
}
