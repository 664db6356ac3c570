package server

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"scoded/internal/store"
)

// corruptSegments flips a byte in the middle of every segment file under
// dir, so any attempt to decode rows fails its checksum while manifests
// stay intact. The lazy-boot tests use it to prove which paths read rows.
func corruptSegments(t *testing.T, dir string) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*", "seg-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no segment files found to corrupt")
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xff
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(paths)
}

// TestLoadStoreIsLazy pins the boot-I/O contract: LoadStore must touch
// only manifests, never segment rows. Every segment file is corrupted
// before the reboot — a boot that read rows would fail its checksum — yet
// boot succeeds and metadata endpoints serve from the manifest; only the
// first detection request (the lazy materialization) hits the corruption.
func TestLoadStoreIsLazy(t *testing.T) {
	dir := t.TempDir()
	s1 := newDurableServer(t, dir)
	if code := do(t, s1.Handler(), "POST", "/v1/datasets?name=cars", "text/csv", []byte(testCSV(21, 200)), nil); code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	if code := do(t, s1.Handler(), "POST", "/v1/datasets/cars/rows", "text/csv", []byte(testCSV(22, 50)), nil); code != http.StatusOK {
		t.Fatalf("append status %d", code)
	}
	s1.Close()
	corruptSegments(t, dir)

	s2 := newDurableServer(t, dir) // boot succeeds: O(manifests), not O(rows)
	defer s2.Close()
	h := s2.Handler()

	var info datasetInfo
	if code := do(t, h, "GET", "/v1/datasets/cars", "", nil, &info); code != http.StatusOK {
		t.Fatalf("get status %d", code)
	}
	if info.Rows != 250 || len(info.Columns) != 4 {
		t.Fatalf("manifest metadata: %+v", info)
	}
	s2.mu.RLock()
	d := s2.datasets["cars"]
	cold := d != nil && d.rel == nil && d.cache == nil && d.stored && d.diskBytes > 0
	s2.mu.RUnlock()
	if !cold {
		t.Fatalf("dataset not registered cold: %+v", d)
	}

	// The first request needing rows must materialize — and hit the
	// corruption, proving boot never read what this reads.
	var checkErr struct {
		Error string `json:"error"`
	}
	code := doJSON(t, h, "POST", "/v1/check",
		map[string]any{"dataset": "cars", "constraint": "Model _||_ Price @ 0.05"}, &checkErr)
	if code != http.StatusInternalServerError {
		t.Fatalf("check on corrupted segments: status %d (%+v)", code, checkErr)
	}
	if !strings.Contains(checkErr.Error, "checksum mismatch") {
		t.Fatalf("check error %q, want checksum mismatch", checkErr.Error)
	}
}

// TestLazyMaterializationRoundTrip: a rebooted server answers checks
// identically to the one that wrote the store, materializing on first
// touch and counting the hit/miss in the residency tracker.
func TestLazyMaterializationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := newDurableServer(t, dir)
	if code := do(t, s1.Handler(), "POST", "/v1/datasets?name=cars", "text/csv", []byte(testCSV(31, 300)), nil); code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	checkReq := []byte(`{"dataset":"cars","constraints":["Model _||_ Price @ 0.05","Price _||_ Mileage | Model @ 0.05"],"workers":1}`)
	code1, body1 := doRaw(t, s1.Handler(), "POST", "/v1/checkall", "application/json", checkReq)
	if code1 != http.StatusOK {
		t.Fatalf("checkall status %d: %s", code1, body1)
	}
	s1.Close()

	s2 := newDurableServer(t, dir)
	defer s2.Close()
	code2, body2 := doRaw(t, s2.Handler(), "POST", "/v1/checkall", "application/json", checkReq)
	if code2 != http.StatusOK {
		t.Fatalf("checkall after reboot: status %d: %s", code2, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("lazy-materialized checkall differs:\n%s\nvs\n%s", body1, body2)
	}
	s2.res.mu.Lock()
	misses, bytesRes := s2.res.misses, s2.res.bytes
	s2.res.mu.Unlock()
	if misses != 1 {
		t.Fatalf("materializations = %d, want 1", misses)
	}
	if bytesRes <= 0 {
		t.Fatalf("resident bytes = %d after materialization", bytesRes)
	}
}

// TestColdAppendStaysCold: appending to a cold dataset writes the segment
// through the store without materializing, and the next materialization
// sees the appended rows.
func TestColdAppendStaysCold(t *testing.T) {
	dir := t.TempDir()
	s1 := newDurableServer(t, dir)
	if code := do(t, s1.Handler(), "POST", "/v1/datasets?name=cars", "text/csv", []byte(testCSV(41, 120)), nil); code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	s1.Close()

	s2 := newDurableServer(t, dir)
	defer s2.Close()
	h := s2.Handler()
	var info struct {
		datasetInfo
		Appended int `json:"appended"`
	}
	if code := do(t, h, "POST", "/v1/datasets/cars/rows", "text/csv", []byte(testCSV(42, 30)), &info); code != http.StatusOK {
		t.Fatalf("cold append status %d: %+v", code, info)
	}
	if info.Rows != 150 || info.Appended != 30 {
		t.Fatalf("cold append info: %+v", info)
	}
	s2.mu.RLock()
	stillCold := s2.datasets["cars"].rel == nil
	s2.mu.RUnlock()
	if !stillCold {
		t.Fatal("cold append materialized the dataset")
	}
	var res checkResultJSON
	code := doJSON(t, h, "POST", "/v1/check",
		map[string]any{"dataset": "cars", "constraint": "Model _||_ Price @ 0.05"}, &res)
	if code != http.StatusOK {
		t.Fatalf("check status %d (%+v)", code, res)
	}
	if res.Test.N != 150 {
		t.Fatalf("check saw N=%d rows, want 150 (appended segment missing)", res.Test.N)
	}
}

// TestEvictionUnderConcurrentCheckAll hammers two datasets under a budget
// smaller than either, so every release triggers eviction while sibling
// requests hold references. /v1/check always materializes; the checkall
// beside it streams while its dataset is cold and reads the relation a
// sibling holds while it is resident. Every request must succeed
// (in-flight relations are never invalidated), the LRU must end the run
// within its invariants, and no goroutine may leak.
func TestEvictionUnderConcurrentCheckAll(t *testing.T) {
	dir := t.TempDir()
	seed := newDurableServer(t, dir)
	for _, name := range []string{"a", "b"} {
		if code := do(t, seed.Handler(), "POST", "/v1/datasets?name="+name, "text/csv", []byte(testCSV(51, 150)), nil); code != http.StatusCreated {
			t.Fatalf("upload %s status %d", name, code)
		}
	}
	seed.Close()

	before := runtime.NumGoroutine()
	s := newDurableServerWithBudget(t, dir, 1) // 1 byte: everything over budget
	defer s.Close()
	h := s.Handler()

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := []string{"a", "b"}[g%2]
			constraints := []string{"Price _||_ Mileage @ 0.05", "Price _||_ Mileage | Model @ 0.05"}
			for i := 0; i < 6; i++ {
				var res checkResultJSON
				code := doJSON(t, h, "POST", "/v1/check", map[string]any{
					"dataset":    name,
					"constraint": constraints[i%2],
					"method":     "spearman",
				}, &res)
				if code != http.StatusOK || res.Error != "" {
					errs <- fmt.Sprintf("%s check %d: status %d, %+v", name, i, code, res)
					return
				}
				var out struct {
					Checked int `json:"checked"`
					Errored int `json:"errored"`
				}
				code = doJSON(t, h, "POST", "/v1/checkall", map[string]any{
					"dataset":     name,
					"constraints": constraints,
					"method":      "spearman",
				}, &out)
				if code != http.StatusOK || out.Errored != 0 || out.Checked != 2 {
					errs <- fmt.Sprintf("%s checkall %d: status %d, %+v", name, i, code, out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Once the storm settles the budget must hold: 1 byte fits nothing, so
	// both datasets are cold and the tracker is empty.
	s.evictOverBudget()
	s.res.mu.Lock()
	bytesRes, entries, evictions, misses := s.res.bytes, len(s.res.entries), s.res.evictions, s.res.misses
	s.res.mu.Unlock()
	if bytesRes != 0 || entries != 0 {
		t.Fatalf("after drain: resident bytes=%d entries=%d, want 0/0", bytesRes, entries)
	}
	if misses == 0 || evictions == 0 {
		t.Fatalf("%d materializations and %d evictions under a 1-byte budget, want both above 0", misses, evictions)
	}
	s.mu.RLock()
	for _, name := range []string{"a", "b"} {
		if s.datasets[name].rel != nil {
			t.Errorf("dataset %s still resident after drain", name)
		}
	}
	s.mu.RUnlock()

	// Goroutine-leak check: allow the runtime a moment to retire workers.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// newDurableServerWithBudget is newDurableServer with a resident budget.
func newDurableServerWithBudget(t *testing.T, dir string, budget int64) *Server {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	s := New(Options{Store: st, Workers: 2, ResidentBytes: budget})
	if err := s.LoadStore(); err != nil {
		t.Fatalf("LoadStore: %v", err)
	}
	return s
}

// TestCheckAllStreamedMatchesResident drives the path choice through the
// HTTP layer: under a tiny budget checkall streams whatever the method (no
// materialization at all), and its response bytes equal the resident
// path's.
func TestCheckAllStreamedMatchesResident(t *testing.T) {
	dir := t.TempDir()
	s1 := newDurableServer(t, dir)
	if code := do(t, s1.Handler(), "POST", "/v1/datasets?name=cars", "text/csv", []byte(testCSV(61, 300)), nil); code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	if code := do(t, s1.Handler(), "POST", "/v1/datasets/cars/rows", "text/csv", []byte(testCSV(62, 60)), nil); code != http.StatusOK {
		t.Fatalf("append status %d", code)
	}
	req := []byte(`{"dataset":"cars","constraints":["Model _||_ Color @ 0.05","Price _||_ Mileage | Model @ 0.05","Model _||_ Price @ 0.05"],"fdr":0.1,"workers":1}`)
	wantCode, wantBody := doRaw(t, s1.Handler(), "POST", "/v1/checkall", "application/json", req)
	if wantCode != http.StatusOK {
		t.Fatalf("resident checkall status %d: %s", wantCode, wantBody)
	}
	pearson := []byte(`{"dataset":"cars","constraints":["Price _||_ Mileage @ 0.05","Price _||_ Mileage | Model @ 0.05","Model _||_ Price @ 0.05"],"method":"pearson"}`)
	pearsonCode, pearsonBody := doRaw(t, s1.Handler(), "POST", "/v1/checkall", "application/json", pearson)
	if pearsonCode != http.StatusOK {
		t.Fatalf("resident pearson checkall status %d: %s", pearsonCode, pearsonBody)
	}
	s1.Close()

	s2 := newDurableServerWithBudget(t, dir, 1)
	s2.opts.ScanWindowRows = 37 // sub-segment windows, mid-stratum splits
	defer s2.Close()
	gotCode, gotBody := doRaw(t, s2.Handler(), "POST", "/v1/checkall", "application/json", req)
	if gotCode != http.StatusOK {
		t.Fatalf("streamed checkall status %d: %s", gotCode, gotBody)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("streamed response differs from resident:\n%s\nvs\n%s", gotBody, wantBody)
	}
	// The streamed run must never have materialized the dataset.
	s2.mu.RLock()
	cold := s2.datasets["cars"].rel == nil
	s2.mu.RUnlock()
	if !cold {
		t.Fatal("checkall materialized a dataset larger than the whole budget")
	}
	s2.res.mu.Lock()
	misses := s2.res.misses
	s2.res.mu.Unlock()
	if misses != 0 {
		t.Fatalf("streamed checkall recorded %d materializations, want 0", misses)
	}
	// Streamed constraints run under the same engine hooks as resident ones.
	if _, body := doRaw(t, s2.Handler(), "GET", "/metrics", "", nil); !strings.Contains(string(body), `scoded_engine_items_total{stage="checkall"} 3`) {
		t.Fatalf("streamed checkall missing from the engine metrics:\n%s", body)
	}

	// Every method streams: Pearson under the same budget answers the
	// resident bytes without materializing.
	if code, body := doRaw(t, s2.Handler(), "POST", "/v1/checkall", "application/json", pearson); code != http.StatusOK || !bytes.Equal(body, pearsonBody) {
		t.Fatalf("streamed pearson checkall status %d differs from resident:\n%s\nvs\n%s", code, body, pearsonBody)
	}
	s2.res.mu.Lock()
	misses = s2.res.misses
	s2.res.mu.Unlock()
	if misses != 0 {
		t.Fatalf("pearson checkall recorded %d materializations, want 0", misses)
	}
	// The path is not a request field: a body that still names a source is
	// rejected as an unknown field.
	forced := []byte(`{"dataset":"cars","constraints":["Model _||_ Price @ 0.05"],"source":"stream"}`)
	if code, body := doRaw(t, s2.Handler(), "POST", "/v1/checkall", "application/json", forced); code != http.StatusBadRequest || !strings.Contains(string(body), "unknown field") {
		t.Fatalf("checkall with a source field: status %d: %s", code, body)
	}
}

// TestResidentMetrics smoke-checks the gauge rendering.
func TestResidentMetrics(t *testing.T) {
	dir := t.TempDir()
	s := newDurableServerWithBudget(t, dir, 1<<30)
	defer s.Close()
	if code := do(t, s.Handler(), "POST", "/v1/datasets?name=cars", "text/csv", []byte(testCSV(71, 50)), nil); code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	_, body := doRaw(t, s.Handler(), "GET", "/metrics", "", nil)
	text := string(body)
	for _, want := range []string{
		"scoded_resident_bytes ",
		"scoded_resident_budget_bytes 1073741824",
		"scoded_resident_relations 1",
		"scoded_resident_hits_total ",
		"scoded_resident_misses_total 0",
		"scoded_resident_evictions_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
