package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scoded/internal/relation"
)

// flattenSegment renders a segment's rows as strings so differently
// chunked reads can be compared value-for-value.
func flattenSegment(seg *Segment) []string {
	rows := make([]string, seg.Rows)
	for i := 0; i < seg.Rows; i++ {
		var sb strings.Builder
		for ci, c := range seg.Cols {
			if ci > 0 {
				sb.WriteByte('|')
			}
			if c.Kind == ColKindCategorical {
				sb.WriteString(c.Dict[c.Codes[i]])
			} else {
				fmt.Fprintf(&sb, "%x", c.Floats[i])
			}
		}
		rows[i] = sb.String()
	}
	return rows
}

// flattenRelation renders a relation's rows as flattenSegment does.
func flattenRelation(rel *relation.Relation) []string {
	rows := make([]string, rel.NumRows())
	for i := range rows {
		var sb strings.Builder
		for ci, name := range rel.Columns() {
			if ci > 0 {
				sb.WriteByte('|')
			}
			c := rel.MustColumn(name)
			if c.Kind == relation.Categorical {
				sb.WriteString(c.StringAt(i))
			} else {
				fmt.Fprintf(&sb, "%x", c.Value(i))
			}
		}
		rows[i] = sb.String()
	}
	return rows
}

func TestScanChunksMatchesScan(t *testing.T) {
	s := openStore(t, t.TempDir())
	if _, err := s.Replace("weather", testRel(t)); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if _, err := s.Append("weather", testBatch(t)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	want := append(flattenRelation(testRel(t)), flattenRelation(testBatch(t))...)
	if len(want) != 8 {
		t.Fatalf("the stored relations hold %d rows, want 8", len(want))
	}

	for _, maxRows := range []int{0, 1, 3, 100} {
		var got []string
		windows := 0
		err := s.ScanChunks(context.Background(), "weather", maxRows, func(seg *Segment) error {
			windows++
			got = append(got, flattenSegment(seg)...)
			return nil
		})
		if err != nil {
			t.Fatalf("ScanChunks(maxRows=%d): %v", maxRows, err)
		}
		if len(got) != len(want) {
			t.Fatalf("maxRows=%d: %d rows, want %d", maxRows, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("maxRows=%d row %d: %q want %q", maxRows, i, got[i], want[i])
			}
		}
		if maxRows == 3 && windows != 3 {
			// 6-row segment in windows of 3, plus the 2-row append segment.
			t.Fatalf("maxRows=3: %d windows, want 3", windows)
		}
		if maxRows == 1 && windows != 8 {
			t.Fatalf("maxRows=1: %d windows, want 8", windows)
		}
	}
}

func TestScanChunksContextCancel(t *testing.T) {
	s := openStore(t, t.TempDir())
	if _, err := s.Replace("weather", testRel(t)); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.ScanChunks(ctx, "weather", 2, func(seg *Segment) error {
		t.Fatal("fn must not run after cancellation")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// segmentPaths returns the dataset's segment files in manifest order.
func segmentPaths(t *testing.T, s *Store, name string) []string {
	t.Helper()
	m, err := s.Manifest(name)
	if err != nil {
		t.Fatalf("Manifest: %v", err)
	}
	dir := filepath.Join(s.Dir(), datasetDir(name))
	paths := make([]string, len(m.Segments))
	for i, si := range m.Segments {
		paths[i] = filepath.Join(dir, si.File)
	}
	return paths
}

func TestScanChunksDetectsCorruption(t *testing.T) {
	s := openStore(t, t.TempDir())
	if _, err := s.Replace("weather", testRel(t)); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	path := segmentPaths(t, s, "weather")[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = s.ScanChunks(context.Background(), "weather", 2, func(seg *Segment) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("got %v, want checksum mismatch", err)
	}
}

func TestReadWindowBounds(t *testing.T) {
	s := openStore(t, t.TempDir())
	rel := testRel(t)
	if _, err := s.Replace("weather", rel); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	f, err := os.Open(segmentPaths(t, s, "weather")[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	r, err := newSegmentReader(f, fi.Size(), &scanBuffers{})
	if err != nil {
		t.Fatalf("newSegmentReader: %v", err)
	}
	if r.rows != rel.NumRows() {
		t.Fatalf("rows %d want %d", r.rows, rel.NumRows())
	}
	var seg Segment
	for _, bad := range [][2]int{{-1, 2}, {0, r.rows + 1}, {3, 2}} {
		if err := r.readWindowInto(bad[0], bad[1], &seg); err == nil {
			t.Fatalf("readWindowInto%v: want error", bad)
		}
	}
	// A mid-segment window must equal the same rows of a full decode.
	if err := r.readWindowInto(0, r.rows, &seg); err != nil {
		t.Fatal(err)
	}
	wantRows := flattenSegment(&seg)[2:5]
	if err := r.readWindowInto(2, 5, &seg); err != nil {
		t.Fatal(err)
	}
	gotRows := flattenSegment(&seg)
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("row %d: %q want %q", i, gotRows[i], wantRows[i])
		}
	}
}

// TestScanManifestPinsSnapshot: a scan of a recorded manifest reads that
// snapshot's rows after later appends, and fails cleanly once a replace
// has deleted its segments, or once a drop and a new upload have written
// other rows under the recorded segment's name.
func TestScanManifestPinsSnapshot(t *testing.T) {
	s := openStore(t, t.TempDir())
	m, err := s.Replace("weather", testRel(t))
	if err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if _, err := s.Append("weather", testBatch(t)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	rows := 0
	count := func(seg *Segment) error {
		rows += seg.Rows
		return nil
	}
	if err := s.ScanManifest(context.Background(), m, 4, count); err != nil {
		t.Fatalf("ScanManifest: %v", err)
	}
	if rows != m.Rows {
		t.Fatalf("ScanManifest read %d rows, want the snapshot's %d", rows, m.Rows)
	}
	if _, err := s.Replace("weather", testBatch(t)); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	err = s.ScanManifest(context.Background(), m, 4, count)
	if err == nil || !strings.Contains(err.Error(), "is gone") {
		t.Fatalf("ScanManifest after a replace: %v, want a missing-segment error", err)
	}
	if err := s.Drop("weather"); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	other := relation.MustNew(
		relation.NewCategoricalColumn("City", []string{"Kyiv", "Lima", "Kyiv", "Pune", "Lima", "Oslo"}),
		relation.NewNumericColumn("Temp", []float64{-3, 18, 2, 30, 17, 1}),
	)
	again, err := s.Replace("weather", other)
	if err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if again.Segments[0].File != m.Segments[0].File || again.Rows != m.Segments[0].Rows {
		t.Fatalf("the new upload wrote %s with %d rows; the case needs %s with %d", again.Segments[0].File, again.Rows, m.Segments[0].File, m.Segments[0].Rows)
	}
	rows = 0
	err = s.ScanManifest(context.Background(), m, 4, count)
	if err == nil || !strings.Contains(err.Error(), "was rewritten") {
		t.Fatalf("ScanManifest after a drop and upload: %v (%d rows read), want a rewritten-segment error", err, rows)
	}
}

// TestScanChunksReusesWindowSlabs: windows decode into the slabs of the
// window before them, so a scan allocates the same however many windows
// its segment splits into.
func TestScanChunksReusesWindowSlabs(t *testing.T) {
	allocs := func(n int) float64 {
		s := openStore(t, t.TempDir())
		cities := make([]string, n)
		temps := make([]float64, n)
		for i := range cities {
			cities[i] = []string{"Oslo", "Lima", "Pune"}[i%3]
			temps[i] = float64(i)
		}
		rel := relation.MustNew(
			relation.NewCategoricalColumn("City", cities),
			relation.NewNumericColumn("Temp", temps),
		)
		if _, err := s.Replace("weather", rel); err != nil {
			t.Fatalf("Replace: %v", err)
		}
		// Many runs, so a stray runtime allocation (a finalizer, a GC
		// cycle) rounds away in the integer average.
		return testing.AllocsPerRun(50, func() {
			if err := s.ScanChunks(context.Background(), "weather", 64, func(*Segment) error { return nil }); err != nil {
				t.Fatalf("ScanChunks: %v", err)
			}
		})
	}
	if few, many := allocs(64*10), allocs(64*100); few != many {
		t.Fatalf("ScanChunks allocates %.0f times over 10 windows and %.0f over 100", few, many)
	}
}
