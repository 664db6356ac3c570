package store

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"scoded/internal/relation"
)

var update = flag.Bool("update", false, "rewrite golden files")

func testRel(t *testing.T) *relation.Relation {
	t.Helper()
	return relation.MustNew(
		relation.NewCategoricalColumn("City", []string{"Oslo", "Lima", "Oslo", "Pune", "Lima", "Oslo"}),
		relation.NewNumericColumn("Temp", []float64{3.5, 18, -1.25, 31, 17.5, 0}),
	)
}

func testBatch(t *testing.T) *relation.Relation {
	t.Helper()
	return relation.MustNew(
		relation.NewCategoricalColumn("City", []string{"Pune", "Kyiv"}),
		relation.NewNumericColumn("Temp", []float64{29, -4}),
	)
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestReplaceLoadRoundTrip(t *testing.T) {
	s := openStore(t, t.TempDir())
	rel := testRel(t)
	m, err := s.Replace("weather", rel)
	if err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if m.Version != 1 || m.Rows != rel.NumRows() || len(m.Segments) != 1 {
		t.Fatalf("manifest = version %d, %d rows, %d segments; want 1, %d, 1",
			m.Version, m.Rows, len(m.Segments), rel.NumRows())
	}
	got, gm, err := s.Load("weather")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if gm.Version != 1 {
		t.Fatalf("loaded version = %d, want 1", gm.Version)
	}
	if !got.Equal(rel) {
		t.Fatal("materialized relation differs from the stored one")
	}
}

func TestAppendGrowsVersionAndSegments(t *testing.T) {
	s := openStore(t, t.TempDir())
	rel, batch := testRel(t), testBatch(t)
	if _, err := s.Replace("weather", rel); err != nil {
		t.Fatal(err)
	}
	m, err := s.Append("weather", batch)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if m.Version != 2 || len(m.Segments) != 2 || m.Rows != rel.NumRows()+batch.NumRows() {
		t.Fatalf("after append: version %d, %d segments, %d rows", m.Version, len(m.Segments), m.Rows)
	}
	want, err := rel.AppendRows(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Load("weather")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("appended store content differs from in-memory AppendRows")
	}
}

func TestAppendRejectsSchemaMismatch(t *testing.T) {
	s := openStore(t, t.TempDir())
	if _, err := s.Replace("weather", testRel(t)); err != nil {
		t.Fatal(err)
	}
	bad := relation.MustNew(relation.NewNumericColumn("Temp", []float64{1}))
	if _, err := s.Append("weather", bad); err == nil {
		t.Fatal("Append with a mismatched schema succeeded")
	}
}

func TestReplaceBumpsVersionAndClearsMonitors(t *testing.T) {
	s := openStore(t, t.TempDir())
	if _, err := s.Replace("weather", testRel(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMonitors("weather", []MonitorDef{{ID: 1, Kind: "numeric", Alpha: 0.05, Window: 8, Dataset: "weather"}}); err != nil {
		t.Fatal(err)
	}
	m, err := s.Replace("weather", testBatch(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 2 {
		t.Fatalf("re-upload version = %d, want 2", m.Version)
	}
	if len(m.Monitors) != 0 {
		t.Fatalf("re-upload kept %d monitor defs; replacement must drop them", len(m.Monitors))
	}
	segs, err := filepath.Glob(filepath.Join(s.Dir(), datasetDir("weather"), "seg-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("re-upload left %d segment files on disk, want 1: %v", len(segs), segs)
	}
}

func TestSetMonitorsPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if _, err := s.Replace("weather", testRel(t)); err != nil {
		t.Fatal(err)
	}
	defs := []MonitorDef{{ID: 3, Kind: "categorical", Alpha: 0.01, Dependence: true, Window: 16, Dataset: "weather", Observed: 42}}
	if err := s.SetMonitors("weather", defs); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	m, err := s2.Manifest("weather")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Monitors) != 1 || m.Monitors[0] != defs[0] {
		t.Fatalf("reopened monitors = %+v, want %+v", m.Monitors, defs)
	}
}

func TestCompactMergesSegmentsKeepsVersion(t *testing.T) {
	s := openStore(t, t.TempDir())
	rel := testRel(t)
	if _, err := s.Replace("weather", rel); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("weather", testBatch(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("weather", testBatch(t)); err != nil {
		t.Fatal(err)
	}
	before, err := s.Manifest("weather")
	if err != nil {
		t.Fatal(err)
	}
	wantRel, _, err := s.Load("weather")
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Compact("weather")
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if len(m.Segments) != 1 {
		t.Fatalf("compacted to %d segments, want 1", len(m.Segments))
	}
	// The data is unchanged, so the version must be too: version-keyed
	// cache entries stay warm across compaction.
	if m.Version != before.Version {
		t.Fatalf("Compact changed version %d -> %d", before.Version, m.Version)
	}
	got, _, err := s.Load("weather")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(wantRel) {
		t.Fatal("compaction changed the materialized relation")
	}
}

func TestRecoveryCleansOrphans(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if _, err := s.Replace("weather", testRel(t)); err != nil {
		t.Fatal(err)
	}
	dsDir := filepath.Join(dir, datasetDir("weather"))
	// A crash can leave: a dataset dir without a manifest, a segment no
	// manifest references, and half-written temp files.
	if err := os.MkdirAll(filepath.Join(dir, datasetDir("halfborn")), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, stray := range []string{
		filepath.Join(dsDir, "seg-deadbeefdeadbeef.bin"),
		filepath.Join(dsDir, "manifest.json.tmp123"),
		filepath.Join(dir, "registry.json.tmp9"),
	} {
		if err := os.WriteFile(stray, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2 := openStore(t, dir)
	names, err := s2.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "weather" {
		t.Fatalf("datasets after recovery = %v, want [weather]", names)
	}
	for _, gone := range []string{
		filepath.Join(dir, datasetDir("halfborn")),
		filepath.Join(dsDir, "seg-deadbeefdeadbeef.bin"),
		filepath.Join(dsDir, "manifest.json.tmp123"),
		filepath.Join(dir, "registry.json.tmp9"),
	} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("recovery left %s behind (stat err: %v)", gone, err)
		}
	}
	if got, _, err := s2.Load("weather"); err != nil || !got.Equal(testRel(t)) {
		t.Fatalf("dataset damaged by recovery: %v", err)
	}
}

func TestTruncatedSegmentDetected(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	m, err := s.Replace("weather", testRel(t))
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, datasetDir("weather"), m.Segments[0].File)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: the segment loses its tail (including
	// the CRC trailer).
	if err := os.WriteFile(segPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load("weather"); err == nil {
		t.Fatal("Load succeeded on a truncated segment")
	}
	checks, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 1 || checks[0].Err == nil {
		t.Fatalf("Verify = %+v, want one corrupt dataset", checks)
	}
}

func TestDropRemovesDataset(t *testing.T) {
	s := openStore(t, t.TempDir())
	if _, err := s.Replace("weather", testRel(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.Drop("weather"); err != nil {
		t.Fatal(err)
	}
	if s.HasDataset("weather") {
		t.Fatal("dataset still present after Drop")
	}
}

func TestDatasetNameEscaping(t *testing.T) {
	s := openStore(t, t.TempDir())
	name := "north/south temps & more"
	if _, err := s.Replace(name, testRel(t)); err != nil {
		t.Fatal(err)
	}
	names, err := s.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != name {
		t.Fatalf("Datasets() = %v, want [%q]", names, name)
	}
	if got, _, err := s.Load(name); err != nil || !got.Equal(testRel(t)) {
		t.Fatalf("load of escaped-name dataset: %v", err)
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	r, err := s.Registry()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Constraints) != 0 || len(r.Monitors) != 0 {
		t.Fatalf("fresh registry not empty: %+v", r)
	}
	r.NextConstraint = 4
	r.NextMonitor = 2
	r.Constraints = []ConstraintDef{{ID: 4, Constraint: "A _||_ B @ 0.05"}}
	r.Monitors = []MonitorDef{{ID: 2, Kind: "numeric", Alpha: 0.1, Window: 32}}
	if err := s.SaveRegistry(r); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	back, err := s2.Registry()
	if err != nil {
		t.Fatal(err)
	}
	if back.NextConstraint != 4 || back.NextMonitor != 2 ||
		len(back.Constraints) != 1 || back.Constraints[0] != r.Constraints[0] ||
		len(back.Monitors) != 1 || back.Monitors[0] != r.Monitors[0] {
		t.Fatalf("registry round-trip = %+v, want %+v", back, r)
	}
}

func TestObservationLogRoundTripAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	const window = 4
	// 3 batches of 4 push the log over 2*window and trigger compaction to
	// the last `window` rows.
	var wantX, wantY []float64
	for b := 0; b < 3; b++ {
		xs := make([]float64, 4)
		ys := make([]float64, 4)
		for i := range xs {
			xs[i] = float64(b*4 + i)
			ys[i] = float64(b*4+i) * 2
		}
		wantX = append(wantX, xs...)
		wantY = append(wantY, ys...)
		if err := s.AppendLog(7, "numeric", nil, nil, xs, ys, window); err != nil {
			t.Fatalf("AppendLog batch %d: %v", b, err)
		}
	}
	rel, err := s.LoadLog(7)
	if err != nil {
		t.Fatal(err)
	}
	n := rel.NumRows()
	if n > 2*window {
		t.Fatalf("log holds %d rows after compaction, want <= %d", n, 2*window)
	}
	gotX := rel.MustColumn("x").Floats()
	gotY := rel.MustColumn("y").Floats()
	// Whatever the resident count, the suffix must match the most recent
	// observations in order.
	for i := 0; i < n; i++ {
		wx := wantX[len(wantX)-n+i]
		wy := wantY[len(wantY)-n+i]
		if gotX[i] != wx || gotY[i] != wy {
			t.Fatalf("log row %d = (%g, %g), want (%g, %g)", i, gotX[i], gotY[i], wx, wy)
		}
	}
	if n < window {
		t.Fatalf("log holds %d rows, want at least the window (%d)", n, window)
	}
	if err := s.DropLog(7); err != nil {
		t.Fatal(err)
	}
	if rel, err := s.LoadLog(7); err != nil || rel != nil {
		t.Fatalf("LoadLog after drop = %v, %v; want nil, nil", rel, err)
	}
}

func TestCategoricalLogRoundTrip(t *testing.T) {
	s := openStore(t, t.TempDir())
	xs := []string{"a", "b", "a"}
	ys := []string{"u", "u", "v"}
	if err := s.AppendLog(1, "categorical", xs, ys, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	rel, err := s.LoadLog(1)
	if err != nil {
		t.Fatal(err)
	}
	x, y := rel.MustColumn("x"), rel.MustColumn("y")
	for i, want := range xs {
		if got := x.StringAt(i); got != want {
			t.Fatalf("x[%d] = %q, want %q", i, got, want)
		}
	}
	for i, want := range ys {
		if got := y.StringAt(i); got != want {
			t.Fatalf("y[%d] = %q, want %q", i, got, want)
		}
	}
}

func TestStats(t *testing.T) {
	s := openStore(t, t.TempDir())
	if _, err := s.Replace("weather", testRel(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("weather", testBatch(t)); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Datasets != 1 || st.Segments != 2 || st.Bytes <= 0 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.LastFlush <= 0 {
		t.Fatalf("LastFlush = %v, want > 0 after writes", st.LastFlush)
	}
}

// TestManifestGolden pins the on-disk manifest encoding: a byte-level
// change to the format must be a conscious decision (bump manifestFormat),
// not an accident of refactoring.
func TestManifestGolden(t *testing.T) {
	m := &Manifest{
		Format:  manifestFormat,
		Name:    "weather",
		Version: 3,
		Rows:    8,
		Schema: []SchemaCol{
			{Name: "City", Kind: ColKindCategorical},
			{Name: "Temp", Kind: ColKindNumeric},
		},
		Segments: []SegmentInfo{
			{File: "seg-0000000000000001.bin", Rows: 6, Bytes: 123},
			{File: "seg-0000000000000003.bin", Rows: 2, Bytes: 77, CRC: 0x5eed0003},
		},
		Monitors: []MonitorDef{
			{ID: 2, Kind: "numeric", Alpha: 0.05, Dependence: true, Window: 64, Dataset: "weather", Observed: 48},
		},
	}
	data, err := encodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "manifest-v1.golden.json")
	if *update {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run `go test -run Golden -update` to create): %v", err)
	}
	if string(data) != string(want) {
		t.Errorf("manifest encoding drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", data, want)
	}
	back, err := decodeManifest(want)
	if err != nil {
		t.Fatalf("decoding golden: %v", err)
	}
	if back.Version != m.Version || back.Rows != m.Rows || len(back.Segments) != 2 ||
		back.Segments[1] != m.Segments[1] || len(back.Monitors) != 1 || back.Monitors[0] != m.Monitors[0] {
		t.Fatalf("golden round-trip = %+v, want %+v", back, m)
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	rel := testRel(t)
	data, err := encodeSegment(rel, 0, rel.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	seg, err := decodeBytes(data, &scanBuffers{})
	if err != nil {
		t.Fatal(err)
	}
	if seg.Rows != rel.NumRows() || len(seg.Cols) != rel.NumCols() {
		t.Fatalf("decoded %d rows, %d cols", seg.Rows, len(seg.Cols))
	}
	city := seg.Cols[0]
	if city.Name != "City" || city.Kind != ColKindCategorical {
		t.Fatalf("col 0 = %+v", city)
	}
	cityCol := rel.MustColumn("City")
	for i, code := range city.Codes {
		if city.Dict[code] != cityCol.StringAt(i) {
			t.Fatalf("row %d: city %q, want %q", i, city.Dict[code], cityCol.StringAt(i))
		}
	}
	temp := seg.Cols[1]
	wantTemp := rel.MustColumn("Temp").Floats()
	for i, f := range temp.Floats {
		if f != wantTemp[i] {
			t.Fatalf("row %d: temp %g, want %g", i, f, wantTemp[i])
		}
	}
}

func TestSegmentRejectsBitFlip(t *testing.T) {
	rel := testRel(t)
	data, err := encodeSegment(rel, 0, rel.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, err := decodeBytes(bad, &scanBuffers{}); err == nil {
			t.Errorf("the segment reader accepted a bit flip at offset %d", i)
		}
	}
}
