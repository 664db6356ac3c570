package kernel

import (
	"context"
	"strings"
	"testing"

	"scoded/internal/relation"
)

func versionedRel(t *testing.T) *relation.Relation {
	t.Helper()
	return relation.MustNew(
		relation.NewCategoricalColumn("Z", []string{"a", "a", "b", "b", "b", "c"}),
		relation.NewCategoricalColumn("X", []string{"p", "q", "p", "q", "p", "q"}),
		relation.NewNumericColumn("V", []float64{1, 2, 3, 4, 5, 6}),
	)
}

// appendTo grows the relation by rows that fall only into the given Z
// group, mirroring what a dataset append does.
func appendTo(t *testing.T, rel *relation.Relation, group string, n int) *relation.Relation {
	t.Helper()
	zs := make([]string, n)
	xs := make([]string, n)
	vs := make([]float64, n)
	for i := range zs {
		zs[i] = group
		xs[i] = "p"
		vs[i] = float64(100 + i)
	}
	batch := relation.MustNew(
		relation.NewCategoricalColumn("Z", zs),
		relation.NewCategoricalColumn("X", xs),
		relation.NewNumericColumn("V", vs),
	)
	grown, err := rel.AppendRows(batch)
	if err != nil {
		t.Fatal(err)
	}
	return grown
}

func TestAllRowsKeyTracksVersion(t *testing.T) {
	rel := versionedRel(t)
	var nilCache *Cache
	if got := nilCache.AllRowsKey(); got != "" {
		t.Fatalf("nil cache AllRowsKey = %q, want empty", got)
	}
	c := NewAt(rel, 5)
	if c.Version() != 5 {
		t.Fatalf("Version = %d, want 5", c.Version())
	}
	k5 := c.AllRowsKey()
	c2 := c.Advance(appendTo(t, rel, "c", 1), 6)
	k6 := c2.AllRowsKey()
	if k5 == k6 {
		t.Fatalf("AllRowsKey did not change across Advance: %q", k5)
	}
	// The old view keeps answering with its own key: in-flight checks stay
	// internally consistent.
	if c.AllRowsKey() != k5 {
		t.Fatal("Advance mutated the receiver's key")
	}
}

// TestStratumVersionInheritance is the heart of incremental invalidation:
// after an append that only grows one stratum, the untouched strata keep
// their old row keys (cache entries stay warm) while the grown stratum and
// the all-rows key roll forward.
func TestStratumVersionInheritance(t *testing.T) {
	rel := versionedRel(t)
	c1 := NewAt(rel, 1)
	p1 := mustPartition(t, c1, rel, []string{"Z"})
	for g, v := range p1.GroupVersions {
		if v != 1 {
			t.Fatalf("initial group %q stamped version %d, want 1", g, v)
		}
	}

	grown := appendTo(t, rel, "b", 2)
	c2 := c1.Advance(grown, 2)
	p2 := mustPartition(t, c2, grown, []string{"Z"})
	for _, g := range []string{"a", "c"} {
		if p2.GroupVersions[g] != 1 {
			t.Errorf("untouched group %q re-stamped to %d; its cache entries went cold", g, p2.GroupVersions[g])
		}
		if p1.StratumRowsKey(g) != p2.StratumRowsKey(g) {
			t.Errorf("untouched group %q changed row key %q -> %q", g, p1.StratumRowsKey(g), p2.StratumRowsKey(g))
		}
	}
	if p2.GroupVersions["b"] != 2 {
		t.Errorf("grown group stamped %d, want 2", p2.GroupVersions["b"])
	}
	if p1.StratumRowsKey("b") == p2.StratumRowsKey("b") {
		t.Error("grown group kept its row key; stale statistics would be served")
	}

	// A third append to another group: "a" inherits its version-1 stamp
	// transitively through the version-2 partition.
	grown3 := appendTo(t, grown, "c", 1)
	c3 := c2.Advance(grown3, 3)
	p3 := mustPartition(t, c3, grown3, []string{"Z"})
	if p3.GroupVersions["a"] != 1 {
		t.Errorf("group a after two unrelated appends = version %d, want 1", p3.GroupVersions["a"])
	}
	if p3.GroupVersions["b"] != 2 {
		t.Errorf("group b after one unrelated append = version %d, want 2", p3.GroupVersions["b"])
	}
	if p3.GroupVersions["c"] != 3 {
		t.Errorf("group c grown at version 3 = version %d", p3.GroupVersions["c"])
	}
}

// TestWarmEntriesSurviveAppend drives the full path a server append takes:
// per-stratum table entries computed before the append must be cache hits
// afterwards for untouched strata.
func TestWarmEntriesSurviveAppend(t *testing.T) {
	rel := versionedRel(t)
	c1 := NewAt(rel, 1)
	p1 := mustPartition(t, c1, rel, []string{"Z"})
	for i, g := range p1.Keys {
		c1.TableContext(context.Background(), rel, "X", "V", 4, p1.StratumRowsKey(g), p1.Groups[g])
		_ = i
	}
	base := c1.Stats()

	grown := appendTo(t, rel, "b", 2)
	c2 := c1.Advance(grown, 2)
	p2 := mustPartition(t, c2, grown, []string{"Z"})
	for _, g := range []string{"a", "c"} {
		c2.TableContext(context.Background(), grown, "X", "V", 4, p2.StratumRowsKey(g), p2.Groups[g])
	}
	after := c2.Stats()
	if hits := after.Hits - base.Hits; hits < 2 {
		t.Errorf("untouched strata recomputed after append: %d hits, want >= 2", hits)
	}
	// The grown stratum must NOT hit the old entry.
	pre := c2.Stats()
	c2.TableContext(context.Background(), grown, "X", "V", 4, p2.StratumRowsKey("b"), p2.Groups["b"])
	post := c2.Stats()
	if post.Misses-pre.Misses < 1 {
		t.Error("grown stratum was served from the stale pre-append entry")
	}
}

// TestAdvancePrunesIdleEntries bounds memory: an entry no view has touched
// for a full generation disappears on the next Advance.
func TestAdvancePrunesIdleEntries(t *testing.T) {
	rel := versionedRel(t)
	c1 := NewAt(rel, 1)
	c1.FloatsContext(context.Background(), rel, "V", c1.AllRowsKey(), nil)
	if n := c1.Stats().Entries; n == 0 {
		t.Fatal("no entry created")
	}
	grown := appendTo(t, rel, "b", 1)
	c2 := c1.Advance(grown, 2)
	// One generation idle: still resident (a check against v1 may be in
	// flight).
	if n := c2.Stats().Entries; n == 0 {
		t.Fatal("entry pruned after a single Advance; grace generation lost")
	}
	grown3 := appendTo(t, grown, "b", 1)
	c3 := c2.Advance(grown3, 3)
	if n := c3.Stats().Entries; n != 0 {
		t.Fatalf("%d entries survived two idle generations", n)
	}
}

// TestStratumRowsKeyShape documents that the stratum key embeds both the
// group identity and its inherited version, so two strata (or two versions
// of one stratum) can never collide.
func TestStratumRowsKeyShape(t *testing.T) {
	rel := versionedRel(t)
	c := NewAt(rel, 7)
	p := mustPartition(t, c, rel, []string{"Z"})
	seen := map[string]bool{}
	for _, g := range p.Keys {
		key := p.StratumRowsKey(g)
		if seen[key] {
			t.Fatalf("duplicate stratum key %q", key)
		}
		seen[key] = true
		if !strings.Contains(key, "@7") {
			t.Errorf("stratum key %q does not embed version 7", key)
		}
	}
}

// mustPartition is PartitionContext under a context that never ends.
func mustPartition(t *testing.T, c *Cache, rel *relation.Relation, z []string) *Partition {
	t.Helper()
	p, err := c.PartitionContext(context.Background(), rel, z)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
