package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"scoded/internal/relation"
)

// decodeBytes decodes a whole in-memory segment through the reader, with
// the given scan buffers.
func decodeBytes(data []byte, bufs *scanBuffers) (*Segment, error) {
	r, err := newSegmentReader(bytes.NewReader(data), int64(len(data)), bufs)
	if err != nil {
		return nil, err
	}
	seg := &Segment{}
	if err := r.readWindowInto(0, r.rows, seg); err != nil {
		return nil, err
	}
	return seg, nil
}

// FuzzSegment pins the reader's no-panic contract: arbitrary bytes must
// produce either a valid Segment or an error — never a panic or a
// length-driven absurd allocation. Decoded segments must satisfy the
// structural invariants the materializer relies on. Each input is read
// twice: whole from one buffer, and streamed through a checksum buffer and
// a header read-ahead of a few bytes each; both reads must agree. The
// input is also read resealed, with a valid CRC trailer appended, so
// mutations reach the header parser instead of failing the checksum.
func FuzzSegment(f *testing.F) {
	rel := relation.MustNew(
		relation.NewCategoricalColumn("City", []string{"Oslo", "Lima", "Oslo"}),
		relation.NewNumericColumn("Temp", []float64{3.5, 18, -1.25}),
	)
	if seed, err := encodeSegment(rel, 0, rel.NumRows()); err == nil {
		f.Add(seed)
		// A truncated and a bit-flipped variant steer the fuzzer toward the
		// interesting prefixes.
		f.Add(seed[:len(seed)/2])
		flipped := append([]byte(nil), seed...)
		flipped[8] ^= 0xff
		f.Add(flipped)
		f.Add(seed[:len(seed)-4]) // a body, which the resealed read accepts
	}
	f.Add([]byte(segmentMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSegmentBytes(t, data)
		checkSegmentBytes(t, binary.LittleEndian.AppendUint32(append([]byte(nil), data...), crc32.ChecksumIEEE(data)))
	})
}

// checkSegmentBytes reads data whole and streamed, and checks that the two
// reads agree and that a decoded segment is well formed.
func checkSegmentBytes(t *testing.T, data []byte) {
	t.Helper()
	seg, err := decodeBytes(data, &scanBuffers{})
	streamed, serr := decodeBytes(data, &scanBuffers{crc: make([]byte, 7), header: make([]byte, 0, 5)})
	if fmt.Sprint(err) != fmt.Sprint(serr) {
		t.Fatalf("whole read: %v; streamed read: %v", err, serr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(seg, streamed) {
		t.Fatalf("whole read %+v, streamed read %+v", seg, streamed)
	}
	for _, col := range seg.Cols {
		switch col.Kind {
		case ColKindCategorical:
			if len(col.Codes) != seg.Rows {
				t.Fatalf("column %q: %d codes for %d rows", col.Name, len(col.Codes), seg.Rows)
			}
			for i, code := range col.Codes {
				if int(code) >= len(col.Dict) {
					t.Fatalf("column %q: code[%d]=%d outside dict of %d", col.Name, i, code, len(col.Dict))
				}
			}
		case ColKindNumeric:
			if len(col.Floats) != seg.Rows {
				t.Fatalf("column %q: %d floats for %d rows", col.Name, len(col.Floats), seg.Rows)
			}
		default:
			t.Fatalf("column %q: unknown kind %q", col.Name, col.Kind)
		}
	}
}

// FuzzManifest pins the same contract for the JSON manifest: arbitrary
// bytes never panic, and anything that decodes re-encodes and decodes to
// an equally valid manifest.
func FuzzManifest(f *testing.F) {
	m := &Manifest{
		Format:  manifestFormat,
		Name:    "weather",
		Version: 2,
		Rows:    3,
		Schema:  []SchemaCol{{Name: "City", Kind: ColKindCategorical}},
		Segments: []SegmentInfo{
			{File: "seg-0000000000000002.bin", Rows: 3, Bytes: 64},
		},
	}
	if seed, err := encodeManifest(m); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"format": 1}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"format": 1, "schema": [{"name": "a", "kind": "categorical"}], "segments": [{"file": "../../etc/passwd", "rows": 0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		out, err := encodeManifest(m)
		if err != nil {
			t.Fatalf("re-encoding a decoded manifest: %v", err)
		}
		if _, err := decodeManifest(out); err != nil {
			t.Fatalf("re-decoding a re-encoded manifest: %v", err)
		}
	})
}
