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
)

// Windowed segment reads (DESIGN.md section 16): a SegmentReader opens one
// segment file, verifies its CRC with a single sequential streaming pass,
// parses the header and per-column dictionaries into memory, and then
// serves arbitrary row windows [lo, hi) with ReadAt against the
// fixed-width code/float blocks. Only the dictionaries and one window are
// ever resident, so a single oversized segment no longer forces a full
// materialization.

// crcChunkSize is the buffer used for the streaming checksum pass.
const crcChunkSize = 256 << 10

// windowColumn is the in-memory header of one column block: everything
// except the fixed-width row data, plus where that data lives.
type windowColumn struct {
	name  string
	kind  string
	dict  []string // categorical only; shared read-only across windows
	off   int64    // file offset of the first row's fixed-width datum
	width int64    // bytes per row: 4 (codes) or 8 (floats)
}

// SegmentReader serves row windows of one immutable segment file.
// It is not safe for concurrent use; each scan owns its reader.
type SegmentReader struct {
	f    *os.File
	rows int
	crc  uint32 // the file's verified CRC-32
	cols []windowColumn
	buf  []byte // raw bytes of the last window's column block, reused
}

// OpenSegment opens path, verifies the whole-file checksum, and parses the
// header. The returned reader must be closed.
func OpenSegment(path string) (*SegmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := newSegmentReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func newSegmentReader(f *os.File) (*SegmentReader, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < int64(len(segmentMagic)+2+4+4+4) {
		return nil, fmt.Errorf("store: segment too short (%d bytes)", size)
	}
	crc, err := verifySegmentCRC(f, size)
	if err != nil {
		return nil, err
	}

	cur := &fileCursor{f: f, limit: size - 4} // body excludes the CRC trailer
	magic, err := cur.bytes(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != segmentMagic {
		return nil, fmt.Errorf("store: bad segment magic %q", magic)
	}
	format, err := cur.u16()
	if err != nil {
		return nil, err
	}
	if format != segmentFormat {
		return nil, fmt.Errorf("store: unsupported segment format %d", format)
	}
	ncols, err := cur.u32()
	if err != nil {
		return nil, err
	}
	nrows, err := cur.u32()
	if err != nil {
		return nil, err
	}
	if int64(ncols)*3 > cur.remaining() {
		return nil, fmt.Errorf("store: segment declares %d columns in %d bytes", ncols, cur.remaining())
	}
	sr := &SegmentReader{f: f, rows: int(nrows), crc: crc, cols: make([]windowColumn, 0, ncols)}
	for ci := uint32(0); ci < ncols; ci++ {
		nameLen, err := cur.u16()
		if err != nil {
			return nil, err
		}
		name, err := cur.bytes(int(nameLen))
		if err != nil {
			return nil, err
		}
		kind, err := cur.u8()
		if err != nil {
			return nil, err
		}
		col := windowColumn{name: string(name)}
		switch kind {
		case kindCategorical:
			col.kind = ColKindCategorical
			col.width = 4
			dictN, err := cur.u32()
			if err != nil {
				return nil, err
			}
			if int64(dictN)*4 > cur.remaining() {
				return nil, fmt.Errorf("store: column %q declares %d dictionary entries in %d bytes", col.name, dictN, cur.remaining())
			}
			col.dict = make([]string, 0, dictN)
			for di := uint32(0); di < dictN; di++ {
				vlen, err := cur.u32()
				if err != nil {
					return nil, err
				}
				v, err := cur.bytes(int(vlen))
				if err != nil {
					return nil, err
				}
				col.dict = append(col.dict, string(v))
			}
		case kindNumeric:
			col.kind = ColKindNumeric
			col.width = 8
		default:
			return nil, fmt.Errorf("store: column %q has unknown kind %d", col.name, kind)
		}
		if int64(nrows)*col.width > cur.remaining() {
			return nil, fmt.Errorf("store: column %q declares %d rows in %d bytes", col.name, nrows, cur.remaining())
		}
		col.off = cur.off
		cur.skip(int64(nrows) * col.width)
		sr.cols = append(sr.cols, col)
	}
	if cur.remaining() != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after segment body", cur.remaining())
	}
	return sr, nil
}

// verifySegmentCRC streams the file once through the IEEE CRC-32,
// compares it against the 4-byte trailer and returns it. One sequential
// pass at open preserves decodeSegment's corruption guarantee without
// holding the file in memory.
func verifySegmentCRC(f *os.File, size int64) (uint32, error) {
	h := crc32.NewIEEE()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	if _, err := io.CopyBuffer(h, io.LimitReader(f, size-4), make([]byte, crcChunkSize)); err != nil {
		return 0, err
	}
	var trailer [4]byte
	if _, err := f.ReadAt(trailer[:], size-4); err != nil {
		return 0, err
	}
	if got, want := binary.LittleEndian.Uint32(trailer[:]), h.Sum32(); got != want {
		return 0, fmt.Errorf("store: segment checksum mismatch (got %08x, want %08x)", got, want)
	}
	return h.Sum32(), nil
}

// Rows is the segment's record count.
func (r *SegmentReader) Rows() int { return r.rows }

// Close releases the underlying file.
func (r *SegmentReader) Close() error { return r.f.Close() }

// ReadWindow decodes rows [lo, hi) into a fresh Segment. Dictionaries are
// shared (read-only) between windows of the same reader; code and float
// slices are allocated per call, sized to the window, so the caller may
// keep them.
func (r *SegmentReader) ReadWindow(lo, hi int) (*Segment, error) {
	seg := &Segment{}
	if err := r.readWindowInto(lo, hi, seg); err != nil {
		return nil, err
	}
	return seg, nil
}

// readWindowInto decodes rows [lo, hi) into seg, reusing the Codes and
// Floats slabs seg holds from a previous window whenever they are large
// enough, along with the reader's byte buffer. A scan that decodes every
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
		need := int(int64(n) * c.width)
		if cap(r.buf) < need {
			r.buf = make([]byte, need)
		}
		b := r.buf[:need]
		if _, err := r.f.ReadAt(b, c.off+int64(lo)*c.width); err != nil {
			return fmt.Errorf("store: column %q window read: %w", c.name, err)
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

// fileCursor is a bounds-checked sequential reader over the body of a
// segment file (everything before the CRC trailer), the file-backed
// analogue of byteReader.
type fileCursor struct {
	f     *os.File
	off   int64
	limit int64
}

func (c *fileCursor) remaining() int64 { return c.limit - c.off }

func (c *fileCursor) bytes(n int) ([]byte, error) {
	if n < 0 || int64(n) > c.remaining() {
		return nil, fmt.Errorf("store: truncated segment (need %d bytes, have %d)", n, c.remaining())
	}
	b := make([]byte, n)
	if _, err := c.f.ReadAt(b, c.off); err != nil {
		return nil, err
	}
	c.off += int64(n)
	return b, nil
}

func (c *fileCursor) skip(n int64) { c.off += n }

func (c *fileCursor) u8() (byte, error) {
	b, err := c.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (c *fileCursor) u16() (uint16, error) {
	b, err := c.bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (c *fileCursor) u32() (uint32, error) {
	b, err := c.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// ScanChunks streams dataset name as row windows of at most maxRows rows
// each, in manifest segment order and row order within each segment. A
// window is delivered as a self-contained *Segment (per-segment dense
// dictionaries, same as Scan), so consumers built on Scan semantics work
// unchanged; unlike Scan, at most maxRows rows of column data are resident
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
	var seg Segment // decode slabs shared by every window of the scan
	for _, si := range m.Segments {
		if err := scanSegmentChunks(ctx, filepath.Join(dir, si.File), si, maxRows, &seg, fn); err != nil {
			return err
		}
	}
	return nil
}

// scanSegmentChunks opens one segment and feeds its windows to fn. Split
// out of ScanChunks so the reader's Close is a straight defer rather than
// a defer in a loop.
func scanSegmentChunks(ctx context.Context, path string, si SegmentInfo, maxRows int, seg *Segment, fn func(*Segment) error) error {
	r, err := OpenSegment(path)
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: segment %s is gone: the dataset was replaced, compacted or dropped after its manifest was read", si.File)
	}
	if err != nil {
		return fmt.Errorf("store: segment %s: %w", si.File, err)
	}
	defer r.Close()
	if si.CRC != 0 && r.crc != si.CRC {
		return fmt.Errorf("store: segment %s was rewritten: the dataset was dropped and uploaded again after its manifest was read", si.File)
	}
	if r.Rows() != si.Rows {
		return fmt.Errorf("store: segment %s holds %d rows, manifest says %d", si.File, r.Rows(), si.Rows)
	}
	step := maxRows
	if step <= 0 {
		step = r.Rows()
	}
	for lo := 0; lo < r.Rows(); lo += step {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := lo + step
		if hi > r.Rows() {
			hi = r.Rows()
		}
		if err := r.readWindowInto(lo, hi, seg); err != nil {
			return fmt.Errorf("store: segment %s: %w", si.File, err)
		}
		if err := fn(seg); err != nil {
			return err
		}
	}
	// An empty segment still yields nothing — mirror Scan, which calls fn
	// once with the decoded (zero-row) segment. Deliver it so row-count
	// accounting downstream matches Scan exactly.
	if r.Rows() == 0 {
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
