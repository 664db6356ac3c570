package oocorebench

import "testing"

// TestStreamedMatchesResident pins the benchmark's own correctness gate
// without paying for testing.Benchmark's timing loops: the stored workload
// is built, checked resident, and both streamed granularities must agree
// bit for bit (assertIdentical panics otherwise).
func TestStreamedMatchesResident(t *testing.T) {
	dir := t.TempDir()
	sw, m, err := newStoredWorkload(42, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 3 {
		t.Fatalf("got %d segments, want 3", len(m.Segments))
	}
	resident, err := sw.w.Run(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{0, windowRows, 613} {
		str, err := sw.streamer(window)
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		assertIdentical(resident, sw.checkStream(str, 2))
	}
}
