// Package store is scoded's durability layer: an append-only columnar
// store where each dataset is a directory of immutable column-major
// segment files plus a JSON manifest (schema, segment list, row counts,
// and a monotonically increasing version).
//
// Layout under the root directory:
//
//	registry.json          constraints, unbound monitors, id counters
//	ds-<escaped-name>/     one directory per dataset
//	  manifest.json        the atomic index (see Manifest)
//	  seg-<nnn>.bin        immutable segments (see segment.go)
//	mlog-<id>/             a monitor's observation log, same layout
//
// Mutations follow write-new-segments-then-swap-manifest: segment files
// are written and fsynced first, then the manifest is atomically replaced
// (temp + fsync + rename + directory fsync). Recovery therefore only has
// to delete *.tmp files and orphaned segments no manifest references —
// a partially written mutation is invisible.
//
// The manifest version is the store's contract with the kernel cache:
// every append or replace bumps it, cache keys embed it, and because an
// append never reorders or recodes existing rows, entries for untouched
// row subsets stay valid (and warm) across appends.
package store

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"scoded/internal/relation"
)

const (
	manifestFile  = "manifest.json"
	registryFile  = "registry.json"
	datasetPrefix = "ds-"
	logPrefix     = "mlog-"
	segmentPrefix = "seg-"
	segmentSuffix = ".bin"
)

// Store manages one root data directory. Methods are safe for concurrent
// use: mutations serialize on a write lock, loads share a read lock (a
// segment file is only deleted by a mutation that already unlinked it from
// the manifest, so readers never observe a half-swapped dataset).
type Store struct {
	dir string

	mu sync.RWMutex
	// lastFlush is the wall-clock duration of the most recent durable
	// mutation (segment write + manifest swap), exported as a gauge.
	lastFlush time.Duration
}

// Open opens (creating if needed) a store rooted at dir and runs crash
// recovery: *.tmp files are deleted, dataset directories without a
// manifest are removed, and segment files no manifest references are
// deleted. It returns the recovered store.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: reading %s: %w", s.dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() {
			if strings.Contains(name, ".tmp") {
				if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
					return err
				}
			}
			continue
		}
		if !strings.HasPrefix(name, datasetPrefix) && !strings.HasPrefix(name, logPrefix) {
			continue
		}
		if err := s.recoverDataset(filepath.Join(s.dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// recoverDataset cleans one dataset directory: temp files go, a directory
// whose manifest never landed is removed wholesale, and orphaned segments
// (written by a mutation that crashed before its manifest swap) are
// deleted. Referenced segments are never touched.
func (s *Store) recoverDataset(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	m, err := readManifest(dir)
	if os.IsNotExist(err) {
		// Crash before the first manifest write: the directory holds only
		// unreachable segments.
		return os.RemoveAll(dir)
	}
	if err != nil {
		return fmt.Errorf("store: recovering %s: %w", dir, err)
	}
	referenced := make(map[string]bool, len(m.Segments))
	for _, seg := range m.Segments {
		referenced[seg.File] = true
	}
	entries, err = os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, segmentPrefix) && strings.HasSuffix(name, segmentSuffix) && !referenced[name] {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// datasetDir maps a dataset name to its directory name. QueryEscape is
// injective and produces only path-safe characters, so arbitrary dataset
// names (slashes, dots, unicode) cannot escape the root or collide.
func datasetDir(name string) string { return datasetPrefix + url.QueryEscape(name) }

// datasetName inverts datasetDir.
func datasetName(dir string) (string, error) {
	return url.QueryUnescape(strings.TrimPrefix(dir, datasetPrefix))
}

func logDir(id int) string { return fmt.Sprintf("%s%d", logPrefix, id) }

// Datasets lists stored dataset names, sorted.
func (s *Store) Datasets() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), datasetPrefix) {
			continue
		}
		name, err := datasetName(e.Name())
		if err != nil {
			return nil, fmt.Errorf("store: undecodable dataset directory %q: %w", e.Name(), err)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// HasDataset reports whether a dataset exists in the store.
func (s *Store) HasDataset(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, err := os.Stat(filepath.Join(s.dir, datasetDir(name), manifestFile))
	return err == nil
}

// Manifest reads a dataset's current manifest.
func (s *Store) Manifest(name string) (*Manifest, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return readManifest(filepath.Join(s.dir, datasetDir(name)))
}

func readManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	return decodeManifest(data)
}

// schemaOf renders a relation's schema for a manifest.
func schemaOf(rel *relation.Relation) []SchemaCol {
	schema := make([]SchemaCol, 0, rel.NumCols())
	for _, name := range rel.Columns() {
		kind := ColKindNumeric
		if rel.MustColumn(name).Kind == relation.Categorical {
			kind = ColKindCategorical
		}
		schema = append(schema, SchemaCol{Name: name, Kind: kind})
	}
	return schema
}

// matchesSchema checks a batch against a manifest's schema (same names,
// order, kinds).
func matchesSchema(m *Manifest, rel *relation.Relation) error {
	got := schemaOf(rel)
	if len(got) != len(m.Schema) {
		return fmt.Errorf("store: batch has %d columns, dataset %q has %d", len(got), m.Name, len(m.Schema))
	}
	for i, c := range m.Schema {
		if got[i] != c {
			return fmt.Errorf("store: batch column %d is %s %q, dataset %q has %s %q",
				i, got[i].Kind, got[i].Name, m.Name, c.Kind, c.Name)
		}
	}
	return nil
}

func segmentFile(version uint64) string {
	return fmt.Sprintf("%s%016x%s", segmentPrefix, version, segmentSuffix)
}

// writeSegment durably writes one segment file for rows [lo, hi) of rel.
func writeSegment(dir, file string, rel *relation.Relation, lo, hi int) (SegmentInfo, error) {
	data, err := encodeSegment(rel, lo, hi)
	if err != nil {
		return SegmentInfo{}, err
	}
	if err := writeFileAtomic(dir, file, data); err != nil {
		return SegmentInfo{}, err
	}
	crc := binary.LittleEndian.Uint32(data[len(data)-4:])
	return SegmentInfo{File: file, Rows: hi - lo, Bytes: int64(len(data)), CRC: crc}, nil
}

// Replace durably (re)creates a dataset from a full relation. If the
// dataset already exists its version is bumped — never reset — so kernel
// caches keyed by version can never confuse the old content with the new;
// bound monitor definitions in the old manifest are dropped, matching the
// server's semantics that replacing a dataset invalidates its monitors.
// It returns the new manifest.
func (s *Store) Replace(name string, rel *relation.Relation) (*Manifest, error) {
	if name == "" {
		return nil, fmt.Errorf("store: empty dataset name")
	}
	if rel.NumCols() == 0 {
		return nil, fmt.Errorf("store: dataset %q has no columns", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	dir := filepath.Join(s.dir, datasetDir(name))
	version := uint64(1)
	var old *Manifest
	if m, err := readManifest(dir); err == nil {
		old = m
		version = m.Version + 1
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	file := segmentFile(version)
	info, err := writeSegment(dir, file, rel, 0, rel.NumRows())
	if err != nil {
		return nil, err
	}
	m := &Manifest{
		Format:   manifestFormat,
		Name:     name,
		Version:  version,
		Rows:     rel.NumRows(),
		Schema:   schemaOf(rel),
		Segments: []SegmentInfo{info},
	}
	//scoded:lint-ignore lockbalance durable-before-visible: the fsync barrier must complete under s.mu so no contender observes unpublished state
	if err := s.swapManifest(dir, m); err != nil {
		return nil, err
	}
	// The swap is the commit point; stale segments are now unreachable and
	// their deletion is best-effort (recovery would also collect them).
	if old != nil {
		for _, seg := range old.Segments {
			if seg.File != file {
				os.Remove(filepath.Join(dir, seg.File))
			}
		}
	}
	s.lastFlush = time.Since(start)
	return m, nil
}

// Append durably appends a batch to an existing dataset: one new segment,
// then a manifest swap that bumps the version. Existing segments are
// untouched, so row indices and categorical first-occurrence order are
// stable — the invariant the versioned kernel cache relies on. It returns
// the new manifest.
func (s *Store) Append(name string, batch *relation.Relation) (*Manifest, error) {
	if batch.NumRows() == 0 {
		return nil, fmt.Errorf("store: empty append batch")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	dir := filepath.Join(s.dir, datasetDir(name))
	m, err := readManifest(dir)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("store: no dataset %q", name)
	}
	if err != nil {
		return nil, err
	}
	if err := matchesSchema(m, batch); err != nil {
		return nil, err
	}
	m.Version++
	info, err := writeSegment(dir, segmentFile(m.Version), batch, 0, batch.NumRows())
	if err != nil {
		return nil, err
	}
	m.Rows += batch.NumRows()
	m.Segments = append(m.Segments, info)
	//scoded:lint-ignore lockbalance durable-before-visible: the fsync barrier must complete under s.mu so no contender observes unpublished state
	if err := s.swapManifest(dir, m); err != nil {
		return nil, err
	}
	s.lastFlush = time.Since(start)
	return m, nil
}

// SetMonitors rewrites a dataset's bound monitor definitions. The data
// version is unchanged — monitor metadata is not row data.
func (s *Store) SetMonitors(name string, defs []MonitorDef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := filepath.Join(s.dir, datasetDir(name))
	m, err := readManifest(dir)
	if err != nil {
		return err
	}
	m.Monitors = defs
	//scoded:lint-ignore lockbalance durable-before-visible: the fsync barrier must complete under s.mu so no contender observes unpublished state
	return s.swapManifest(dir, m)
}

func (s *Store) swapManifest(dir string, m *Manifest) error {
	data, err := encodeManifest(m)
	if err != nil {
		return err
	}
	return writeFileAtomic(dir, manifestFile, data)
}

// Drop removes a dataset and everything under it.
func (s *Store) Drop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := filepath.Join(s.dir, datasetDir(name))
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	//scoded:lint-ignore lockbalance durable-before-visible: the fsync barrier must complete under s.mu so no contender observes unpublished state
	return syncDir(s.dir)
}

// Load materializes a dataset into a relation by streaming its segments
// through a relation.Builder, and returns it with the manifest it was
// built from. The result is bit-identical to building the relation from
// the original full-column data: the builder re-interns categorical
// chunks, preserving global first-occurrence code order.
func (s *Store) Load(name string) (*relation.Relation, *Manifest, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	dir := filepath.Join(s.dir, datasetDir(name))
	m, err := readManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	rel, err := materialize(dir, m)
	if err != nil {
		return nil, nil, err
	}
	return rel, m, nil
}

func materialize(dir string, m *Manifest) (*relation.Relation, error) {
	names := make([]string, len(m.Schema))
	kinds := make([]relation.Kind, len(m.Schema))
	for i, c := range m.Schema {
		names[i] = c.Name
		kinds[i] = relation.Numeric
		if c.Kind == ColKindCategorical {
			kinds[i] = relation.Categorical
		}
	}
	b, err := relation.NewBuilder(names, kinds)
	if err != nil {
		return nil, err
	}
	err = scanManifestChunks(context.Background(), dir, m, 0, func(seg *Segment) error {
		if len(seg.Cols) != len(m.Schema) {
			return fmt.Errorf("store: segment has %d columns, schema has %d", len(seg.Cols), len(m.Schema))
		}
		for i, col := range seg.Cols {
			want := m.Schema[i]
			if col.Name != want.Name || col.Kind != want.Kind {
				return fmt.Errorf("store: segment column %d is %s %q, schema has %s %q",
					i, col.Kind, col.Name, want.Kind, want.Name)
			}
			var err error
			if col.Kind == ColKindCategorical {
				err = b.AppendCoded(col.Name, col.Dict, col.Codes)
			} else {
				err = b.AppendFloats(col.Name, col.Floats)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rel, err := b.Build()
	if err != nil {
		return nil, err
	}
	if rel.NumRows() != m.Rows {
		return nil, fmt.Errorf("store: materialized %d rows, manifest says %d", rel.NumRows(), m.Rows)
	}
	return rel, nil
}

// Compact rewrites a dataset's segments into a single segment. The data —
// row order, values, categorical code order — is unchanged, and so is the
// version: compaction is invisible to version-keyed caches, whose entries
// stay warm across it. It returns the new manifest.
func (s *Store) Compact(name string) (*Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	dir := filepath.Join(s.dir, datasetDir(name))
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if len(m.Segments) <= 1 {
		return m, nil
	}
	rel, err := materialize(dir, m)
	if err != nil {
		return nil, err
	}
	// The compacted file must not collide with any live segment name, so it
	// is suffixed distinctly from the version-named appends.
	file := fmt.Sprintf("%s%016x-compact%s", segmentPrefix, m.Version, segmentSuffix)
	info, err := writeSegment(dir, file, rel, 0, rel.NumRows())
	if err != nil {
		return nil, err
	}
	old := m.Segments
	m.Segments = []SegmentInfo{info}
	//scoded:lint-ignore lockbalance durable-before-visible: the fsync barrier must complete under s.mu so no contender observes unpublished state
	if err := s.swapManifest(dir, m); err != nil {
		return nil, err
	}
	for _, seg := range old {
		if seg.File != file {
			os.Remove(filepath.Join(dir, seg.File))
		}
	}
	s.lastFlush = time.Since(start)
	return m, nil
}

// DatasetCheck is Verify's per-dataset result.
type DatasetCheck struct {
	Name     string
	Version  uint64
	Segments int
	Rows     int
	Bytes    int64
	// Err holds the first integrity problem found, nil when clean.
	Err error
}

// Verify decodes every segment of every dataset (CRC, bounds, schema and
// row-count agreement with the manifest) and reports per-dataset results.
func (s *Store) Verify() ([]DatasetCheck, error) {
	names, err := s.Datasets()
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	checks := make([]DatasetCheck, 0, len(names))
	for _, name := range names {
		dir := filepath.Join(s.dir, datasetDir(name))
		c := DatasetCheck{Name: name}
		m, err := readManifest(dir)
		if err != nil {
			c.Err = err
			checks = append(checks, c)
			continue
		}
		c.Version, c.Segments, c.Rows = m.Version, len(m.Segments), m.Rows
		for _, seg := range m.Segments {
			c.Bytes += seg.Bytes
		}
		if _, err := materialize(dir, m); err != nil {
			c.Err = err
		}
		checks = append(checks, c)
	}
	return checks, nil
}

// Stats summarizes the store for the /metrics endpoint.
type Stats struct {
	// Datasets counts dataset directories (monitor logs excluded).
	Datasets int
	// Segments and Bytes total over all datasets and monitor logs.
	Segments int
	Bytes    int64
	// LastFlush is the duration of the most recent durable mutation; zero
	// when the store has not been written to since opening.
	LastFlush time.Duration
}

// Stats walks the store and returns aggregate gauges.
func (s *Store) Stats() (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st Stats
	st.LastFlush = s.lastFlush
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return st, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		isDS := strings.HasPrefix(e.Name(), datasetPrefix)
		if !isDS && !strings.HasPrefix(e.Name(), logPrefix) {
			continue
		}
		m, err := readManifest(filepath.Join(s.dir, e.Name()))
		if err != nil {
			return st, fmt.Errorf("store: stats: %s: %w", e.Name(), err)
		}
		if isDS {
			st.Datasets++
		}
		st.Segments += len(m.Segments)
		for _, seg := range m.Segments {
			st.Bytes += seg.Bytes
		}
	}
	return st, nil
}

// Registry reads the root registry, returning an empty one when the file
// does not exist yet.
func (s *Store) Registry() (*Registry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, err := os.ReadFile(filepath.Join(s.dir, registryFile))
	if os.IsNotExist(err) {
		return &Registry{Format: manifestFormat}, nil
	}
	if err != nil {
		return nil, err
	}
	var r Registry
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("store: decoding registry: %w", err)
	}
	if r.Format != manifestFormat {
		return nil, fmt.Errorf("store: unsupported registry format %d", r.Format)
	}
	return &r, nil
}

// SaveRegistry durably replaces the root registry.
func (s *Store) SaveRegistry(r *Registry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.Format = manifestFormat
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	//scoded:lint-ignore lockbalance durable-before-visible: the fsync barrier must complete under s.mu so no contender observes unpublished state
	return writeFileAtomic(s.dir, registryFile, append(data, '\n'))
}
