package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"scoded/internal/relation"
)

// Segment binary format (all integers little-endian):
//
//	magic    [4]byte  "SCSG"
//	format   uint16   currently 1
//	ncols    uint32
//	nrows    uint32
//	ncols ×:
//	  nameLen uint16, name bytes
//	  kind    uint8   0 = categorical, 1 = numeric
//	  categorical: dictN uint32, dictN × (len uint32, bytes),
//	               nrows × uint32 codes
//	  numeric:     nrows × uint64 float64 bits
//	crc      uint32   IEEE CRC-32 of every preceding byte
//
// Segments are immutable once written: a crashed writer leaves either a
// temp file (never referenced) or a fully renamed file whose CRC seals it.
// SegmentReader (window.go) is the one decoder.

const (
	segmentMagic  = "SCSG"
	segmentFormat = 1

	kindCategorical = 0
	kindNumeric     = 1
)

// Segment is one decoded columnar segment: a batch of rows for every
// column of a dataset, in schema order.
type Segment struct {
	// Rows is the record count of the batch.
	Rows int
	// Cols holds the column blocks in schema order.
	Cols []SegmentColumn
}

// SegmentColumn is one column's slice of a segment.
type SegmentColumn struct {
	Name string
	// Kind is "categorical" or "numeric".
	Kind string
	// Dict and Codes hold categorical data (Codes index into Dict).
	Dict  []string
	Codes []uint32
	// Floats holds numeric data.
	Floats []float64
}

// encodeSegment serializes the given row range [lo, hi) of a relation.
func encodeSegment(rel *relation.Relation, lo, hi int) ([]byte, error) {
	if lo < 0 || hi > rel.NumRows() || lo > hi {
		return nil, fmt.Errorf("store: segment row range [%d,%d) out of [0,%d)", lo, hi, rel.NumRows())
	}
	nrows := hi - lo
	var buf bytes.Buffer
	buf.WriteString(segmentMagic)
	writeU16(&buf, segmentFormat)
	writeU32(&buf, uint32(rel.NumCols()))
	writeU32(&buf, uint32(nrows))
	for _, name := range rel.Columns() {
		if len(name) > math.MaxUint16 {
			return nil, fmt.Errorf("store: column name %.20q... exceeds %d bytes", name, math.MaxUint16)
		}
		writeU16(&buf, uint16(len(name)))
		buf.WriteString(name)
		c := rel.MustColumn(name)
		if c.Kind == relation.Categorical {
			buf.WriteByte(kindCategorical)
			// Persist only the dictionary entries the range uses, remapped
			// densely in first-occurrence order, so a segment is
			// self-contained and reads identically whether materialized
			// alone or after earlier segments.
			remap := make(map[int]uint32)
			var dict []string
			codes := make([]uint32, nrows)
			for i := 0; i < nrows; i++ {
				code := c.Code(lo + i)
				dense, ok := remap[code]
				if !ok {
					dense = uint32(len(dict))
					remap[code] = dense
					dict = append(dict, c.StringAt(lo+i))
				}
				codes[i] = dense
			}
			writeU32(&buf, uint32(len(dict)))
			for _, v := range dict {
				writeU32(&buf, uint32(len(v)))
				buf.WriteString(v)
			}
			for _, code := range codes {
				writeU32(&buf, code)
			}
		} else {
			buf.WriteByte(kindNumeric)
			for i := lo; i < hi; i++ {
				writeU64(&buf, math.Float64bits(c.Value(i)))
			}
		}
	}
	sum := crc32.ChecksumIEEE(buf.Bytes())
	writeU32(&buf, sum)
	return buf.Bytes(), nil
}

func writeU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	buf.Write(b[:])
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}
