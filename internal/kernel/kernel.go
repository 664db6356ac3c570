// Package kernel implements the shared-statistic computation cache behind
// SCODED's detection hot path (DESIGN.md §9). Checking a family of
// statistical constraints against one dataset keeps recomputing the same
// intermediate artifacts — dense column codings, group-by partitions on
// conditioning sets Z, contingency tables, and Kendall's tau itself — once
// per constraint, even when many constraints share attributes or
// conditioning sets (the paper's §4.2–4.3 cost structure). A Cache
// memoizes those artifacts per dataset so they are computed once and
// shared.
//
// Correctness contract: every cached artifact is produced by exactly the
// same function the uncached path runs, so detection results are
// bit-identical with and without a cache (enforced by the identity property
// tests in internal/detect). Cached values are shared across goroutines and
// must be treated as read-only by consumers; every consumer in this module
// either only reads them or copies before mutating.
//
// Concurrency: lookups are single-flight. When several CheckAll workers ask
// for the same key at once, one computes while the rest wait on the entry's
// done channel, so parallel workers share one computation instead of racing
// to duplicate it. Lookups are context-aware: a waiter whose context ends
// returns its context's error instead of blocking on the leader, and a
// leader that is cancelled (or panics) before producing a value hands the
// key off — the entry is withdrawn and the next waiter retries as the new
// leader — so one doomed request can never wedge a cache slot for everyone
// else.
//
// A nil *Cache is valid everywhere and simply computes without memoizing:
// the uncached path and the cached path run literally the same code.
//
//scoded:hotpath
package kernel

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"scoded/internal/relation"
	"scoded/internal/stats"
)

// Cache memoizes per-dataset detection artifacts. Create one with New (or
// NewAt to bind a store version); the zero value is not usable, but a nil
// *Cache is (it computes everything directly). A Cache is safe for
// concurrent use and is an immutable view: it is bound to one relation
// snapshot at one version. Appending rows derives the next view with
// Advance — the memoized entries are shared, and because every key embeds
// the version of the row subset it describes, entries for subsets an
// append did not touch stay warm while stale ones simply stop being
// addressed. Replacing a dataset wholesale still creates a fresh Cache.
type Cache struct {
	rel     *relation.Relation
	version uint64
	state   *cacheState
}

// cacheState is the storage shared by every Advance-derived view of one
// dataset's cache lineage.
type cacheState struct {
	hits   atomic.Int64
	misses atomic.Int64

	mu      sync.Mutex
	entries map[string]*flight
	// gen records, per key, the cache version that most recently created or
	// hit the entry; Advance prunes entries idle for a full generation.
	gen map[string]uint64

	// pmu guards latest: the most recent stamped partition per conditioning
	// set, which is what lets the next version's partition inherit stratum
	// versions for groups an append did not touch.
	pmu    sync.Mutex
	latest map[string]*Partition
}

// flight is one single-flight cache entry: the first goroutine to claim the
// key computes val and closes done; later goroutines wait on done. When the
// leader abandons the key (cancelled before computing, or its compute
// panicked), handoff is set before done closes and the entry is withdrawn
// from the map: waiters loop back to the lookup and one of them becomes the
// new leader.
type flight struct {
	done    chan struct{}
	val     any
	handoff bool
}

// New creates a cache bound to the given relation at version 0. The
// relation must not be mutated afterwards (registered relations in
// scoded-serve are immutable by construction; growth goes through
// Advance with a freshly built relation).
func New(rel *relation.Relation) *Cache {
	return NewAt(rel, 0)
}

// NewAt creates a cache bound to the given relation at a specific version
// — the store's manifest version when the relation was materialized — so
// that a server restart resumes the same key space the durable store
// advanced to.
func NewAt(rel *relation.Relation, version uint64) *Cache {
	return &Cache{
		rel:     rel,
		version: version,
		state: &cacheState{
			entries: make(map[string]*flight),    //scoded:lint-ignore allochot cache interning tables: one entry per memoized artifact, not per row
			gen:     make(map[string]uint64),     //scoded:lint-ignore allochot cache interning tables: one entry per memoized artifact, not per row
			latest:  make(map[string]*Partition), //scoded:lint-ignore allochot cache interning tables: one entry per memoized artifact, not per row
		},
	}
}

// Advance derives the cache view for an appended-to relation at a newer
// version. The receiver stays valid — in-flight checks holding the old
// (relation, cache) pair keep reading internally consistent keys — while
// new requests use the returned view. Entries are shared: keys for row
// subsets the append did not change (per-stratum keys inherit their
// version through partition diffing) are the same strings in both views,
// so they stay warm. Entries that no view has touched for a full
// generation are pruned here, bounding memory across many appends.
func (c *Cache) Advance(rel *relation.Relation, version uint64) *Cache {
	st := c.state
	st.mu.Lock()
	for key, g := range st.gen {
		if g+1 >= version {
			continue
		}
		f, ok := st.entries[key]
		if !ok {
			delete(st.gen, key)
			continue
		}
		select {
		case <-f.done:
			delete(st.entries, key)
			delete(st.gen, key)
		default:
			// In flight: the leader's cleanup owns this entry.
		}
	}
	st.mu.Unlock()
	return &Cache{rel: rel, version: version, state: st}
}

// Version returns the store version this cache view is bound to (0 for a
// nil cache).
func (c *Cache) Version() uint64 {
	if c == nil {
		return 0
	}
	return c.version
}

// AllRowsKey returns the canonical rowsKey for the whole relation at this
// view's version. Passing it (with nil rows) to the Codes / Floats / Table
// / Kendall lookups scopes the entry to this version, so an append — which
// does change the all-rows subset — naturally misses onto fresh entries. A
// nil cache returns "" (the key is never used on the uncached path).
func (c *Cache) AllRowsKey() string {
	if c == nil {
		return ""
	}
	return "@" + strconv.FormatUint(c.version, 16) //scoded:lint-ignore allochot built once per CheckAll, not per row
}

// Relation returns the relation the cache is bound to (nil for a nil cache).
func (c *Cache) Relation() *relation.Relation {
	if c == nil {
		return nil
	}
	return c.rel
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// Hits counts lookups that found (or waited on) an existing entry.
	Hits int64
	// Misses counts lookups that had to compute the entry.
	Misses int64
	// Entries is the number of memoized artifacts.
	Entries int64
}

// Stats returns the current counters; a nil cache reports zeros. Counters
// are shared across Advance-derived views — they describe the dataset's
// cache lineage, not one version window.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := c.state
	st.mu.Lock()
	n := int64(len(st.entries))
	st.mu.Unlock()
	return Stats{Hits: st.hits.Load(), Misses: st.misses.Load(), Entries: n}
}

// do returns the memoized value for key, computing it at most once across
// uncancelled goroutines. A nil cache computes directly without memoizing
// (after the same context check, so cancellation semantics are identical
// cached and uncached). Waiters whose context ends return ctx.Err() instead
// of blocking on the leader; a leader cancelled before computing — or whose
// compute fails or panics — hands the key off so another caller can claim
// it. compute fails only with the caller's context error, from a nested
// lookup; such an error is returned, never cached.
func (c *Cache) do(ctx context.Context, key string, compute func() (any, error)) (any, error) {
	if c == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return compute()
	}
	st := c.state
	for {
		st.mu.Lock()
		if f, ok := st.entries[key]; ok {
			if st.gen[key] < c.version {
				st.gen[key] = c.version
			}
			st.mu.Unlock()
			st.hits.Add(1)
			select {
			case <-f.done:
				if f.handoff {
					continue // leader abandoned the key; retry the lookup
				}
				return f.val, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		// Claim leadership — unless this caller is already doomed, in which
		// case registering an entry would strand any waiter that piles on.
		if err := ctx.Err(); err != nil {
			st.mu.Unlock()
			return nil, err
		}
		f := &flight{done: make(chan struct{})}
		st.entries[key] = f
		st.gen[key] = c.version
		st.mu.Unlock()
		st.misses.Add(1)
		if err := c.lead(f, key, compute); err != nil {
			return nil, err
		}
		return f.val, nil
	}
}

// lead runs one leadership term: compute the value, or — if compute fails
// or panics — withdraw the entry, mark it handed off, release the waiters,
// and return the error or let the panic continue to unwind (the engine's
// per-item recovery turns it into that item's error; waiters meanwhile
// retry cleanly instead of consuming a poisoned nil value).
func (c *Cache) lead(f *flight, key string, compute func() (any, error)) error {
	completed := false
	defer func() {
		if !completed {
			st := c.state
			st.mu.Lock()
			delete(st.entries, key)
			delete(st.gen, key)
			st.mu.Unlock()
			f.handoff = true
		}
		close(f.done)
	}()
	val, err := compute()
	if err != nil {
		return err
	}
	f.val = val
	completed = true
	return nil
}

// Cache keys are kind-prefixed strings with NUL field separators. Column
// names come from CSV headers or Go string literals and cannot contain NUL;
// group keys use the relation package's 0x1f unit separator, which NUL also
// cannot collide with.
const keySep = "\x00"

func codesKey(col string, bins int, rowsKey string) string {
	return "codes" + keySep + col + keySep + strconv.Itoa(bins) + keySep + rowsKey //scoded:lint-ignore allochot cache keys are built once per memoized artifact, not per row
}

func floatsKey(col, rowsKey string) string {
	return "floats" + keySep + col + keySep + rowsKey //scoded:lint-ignore allochot cache keys are built once per memoized artifact, not per row
}

func ranksKey(col, rowsKey string) string {
	return "ranks" + keySep + col + keySep + rowsKey //scoded:lint-ignore allochot cache keys are built once per memoized artifact, not per row
}

func tableKey(x, y string, bins int, rowsKey string) string {
	return "table" + keySep + x + keySep + y + keySep + strconv.Itoa(bins) + keySep + rowsKey //scoded:lint-ignore allochot cache keys are built once per memoized artifact, not per row
}

func tauKey(x, y, rowsKey string) string {
	return "tau" + keySep + x + keySep + y + keySep + rowsKey //scoded:lint-ignore allochot cache keys are built once per memoized artifact, not per row
}

func partitionCacheKey(z []string) string {
	return "part" + keySep + strings.Join(z, keySep) //scoded:lint-ignore allochot cache keys are built once per memoized artifact, not per row
}

type codesVal struct {
	codes []int32
	k     int
}

type tableVal struct {
	t      stats.Table
	kx, ky int
}

type tauVal struct {
	k   stats.KendallResult
	err error
}

// CodesContext returns the dense category codes of column col over the
// given row subset, quantile-discretizing numeric columns into bins (see
// CodesFor). rowsKey must canonically identify the row subset: "" means all
// rows (rows may then be nil), and conditioning strata use
// Partition.StratumRowsKey. The returned slice is shared — callers must not
// mutate it. The only error is the context's, when ctx ends before the
// value is available.
func (c *Cache) CodesContext(ctx context.Context, d *relation.Relation, col string, bins int, rowsKey string, rows []int) ([]int32, int, error) {
	// Categorical codings do not depend on the bin count; normalize the key
	// so every bin setting shares one entry.
	if d.MustColumn(col).Kind == relation.Categorical {
		bins = 0
	}
	v, err := c.do(ctx, codesKey(col, bins, rowsKey), func() (any, error) {
		codes, k := CodesFor(d, col, bins, rows)
		return codesVal{codes: codes, k: k}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	cv := v.(codesVal)
	return cv.codes, cv.k, nil
}

// FloatsContext returns the float values of a numeric column over the given
// row subset. The returned slice is shared — callers must not mutate it
// (every stats consumer copies before sorting or shuffling).
func (c *Cache) FloatsContext(ctx context.Context, d *relation.Relation, col, rowsKey string, rows []int) ([]float64, error) {
	v, err := c.do(ctx, floatsKey(col, rowsKey), func() (any, error) {
		return FloatsFor(d, col, rows), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]float64), nil
}

// PartitionContext returns the group-by partition of the relation on the
// conditioning columns z, with group keys pre-sorted for deterministic
// iteration. The partition is shared — callers must not mutate its groups.
//
// The partition entry is keyed by the cache version (an append grows at
// least one group, so the partition itself must be recomputed), but each
// group inherits the version of the last partition that saw it change:
// under append-only growth, a group whose row-list length is unchanged has
// the identical row list, so its strata keys — and every codes / table /
// Kendall entry hanging off them — remain valid and warm.
func (c *Cache) PartitionContext(ctx context.Context, d *relation.Relation, z []string) (*Partition, error) {
	v, err := c.do(ctx, partitionCacheKey(z)+keySep+"@"+strconv.FormatUint(c.Version(), 16), func() (any, error) { //scoded:lint-ignore allochot one key per partition lookup, not per row
		p := PartitionOf(d, z)
		c.stampPartition(p)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Partition), nil
}

// stampPartition assigns per-group versions to a freshly computed
// partition by diffing it against the previous partition on the same
// conditioning set: unchanged groups (same row count ⇒ same rows, by the
// append-only invariant) inherit their old version, changed or new groups
// are stamped with the current one. A nil cache leaves the zero stamps
// PartitionOf produced.
func (c *Cache) stampPartition(p *Partition) {
	if c == nil {
		return
	}
	p.Version = c.version
	p.GroupVersions = make(map[string]uint64, len(p.Groups)) //scoded:lint-ignore allochot one map per partition stamp, sized to the group count
	st := c.state
	st.pmu.Lock()
	defer st.pmu.Unlock()
	prev := st.latest[p.CacheKey]
	for key, rows := range p.Groups {
		if prev != nil {
			if old, ok := prev.Groups[key]; ok && len(old) == len(rows) {
				p.GroupVersions[key] = prev.GroupVersions[key]
				continue
			}
		}
		p.GroupVersions[key] = c.version
	}
	if prev == nil || prev.Version <= p.Version {
		st.latest[p.CacheKey] = p
	}
}

// TableContext returns the contingency table of the (x, y) column pair over
// the given row subset, together with the two cardinalities. The table is
// shared — callers must not mutate it (copy first to run a drill-down).
// The key is order-sensitive: a transposed table is a different float
// summation order, and the cache never substitutes one for the other.
func (c *Cache) TableContext(ctx context.Context, d *relation.Relation, x, y string, bins int, rowsKey string, rows []int) (stats.Table, int, int, error) {
	v, err := c.do(ctx, tableKey(x, y, bins, rowsKey), func() (any, error) {
		xc, kx, err := c.CodesContext(ctx, d, x, bins, rowsKey, rows)
		if err != nil {
			return nil, err
		}
		yc, ky, err := c.CodesContext(ctx, d, y, bins, rowsKey, rows)
		if err != nil {
			return nil, err
		}
		return tableVal{t: stats.TableFromCodes(xc, yc, kx, ky), kx: kx, ky: ky}, nil
	})
	if err != nil {
		return stats.Table{}, 0, 0, err
	}
	tv := v.(tableVal)
	return tv.t, tv.kx, tv.ky, nil
}

// RanksContext returns the rank view of a numeric column over the given
// row subset: the order τ reads, 4 bytes per row. It is ranked straight
// from FloatsFor, so a column only τ reads caches no values. A NaN is
// recorded in the view, not reported. The view is shared — callers must
// not mutate it.
func (c *Cache) RanksContext(ctx context.Context, d *relation.Relation, col, rowsKey string, rows []int) (stats.RankView, error) {
	v, err := c.do(ctx, ranksKey(col, rowsKey), func() (any, error) {
		return stats.DenseRanks(FloatsFor(d, col, rows)), nil
	})
	if err != nil {
		return stats.RankView{}, err
	}
	return v.(stats.RankView), nil
}

// KendallPrepContext returns stats.Kendall of the (x, y) column pair over
// the given row subset: the counts, tau, z and p of the one τ kernel,
// counted on the two columns' cached rank views, so a warm lookup recounts
// nothing. Validation errors (NaN values, too-small samples) are
// deterministic and cached alongside; a context error is returned as-is
// and caches nothing. The name is kept for bench/replay.go, which calls
// it.
func (c *Cache) KendallPrepContext(ctx context.Context, d *relation.Relation, x, y, rowsKey string, rows []int) (stats.KendallResult, error) {
	v, err := c.do(ctx, tauKey(x, y, rowsKey), func() (any, error) {
		xr, err := c.RanksContext(ctx, d, x, rowsKey, rows)
		if err != nil {
			return nil, err
		}
		yr, err := c.RanksContext(ctx, d, y, rowsKey, rows)
		if err != nil {
			return nil, err
		}
		k, err := stats.KendallRanks(xr, yr)
		return tauVal{k: k, err: err}, nil
	})
	if err != nil {
		return stats.KendallResult{}, err
	}
	tv := v.(tauVal)
	return tv.k, tv.err
}
