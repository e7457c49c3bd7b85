package server

import (
	"fmt"
	"sync"
	"testing"

	"xseed"
)

// Test scopes: distinct registry entries, plus a later snapshot version of
// the first.
var (
	scopeS     = cacheScope{id: 1, ver: 1}
	scopeS2    = cacheScope{id: 1, ver: 2}
	scopeOther = cacheScope{id: 2, ver: 1}
	scopePlans = cacheScope{id: 3}
	scopeDead  = cacheScope{id: 4, ver: 1}
)

func TestCacheGetPut(t *testing.T) {
	c := NewCache(64)
	if _, ok := c.Get(scopeS, "/a/b", nil); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(scopeS, "/a/b", EstimateResult{Est: 7}, nil)
	v, ok := c.Get(scopeS, "/a/b", nil)
	if !ok || v.Est != 7 {
		t.Fatalf("got %v %v, want 7 true", v, ok)
	}
	// Same query under another synopsis is a distinct key.
	if _, ok := c.Get(scopeOther, "/a/b", nil); ok {
		t.Fatal("key leaked across synopses")
	}
	// ... and so is the same query under a later snapshot version.
	if _, ok := c.Get(scopeS2, "/a/b", nil); ok {
		t.Fatal("key leaked across snapshot versions")
	}
	// Overwrite.
	c.Put(scopeS, "/a/b", EstimateResult{Est: 9, Streamed: true}, nil)
	v, _ = c.Get(scopeS, "/a/b", nil)
	if v.Est != 9 || !v.Streamed {
		t.Fatalf("overwrite lost: %v", v)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want entries=1 hits=2 misses=3", st)
	}
	if st.HitRate != 0.4 {
		t.Fatalf("hit rate = %v, want 0.4", st.HitRate)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Capacity numShards means one entry per shard: inserting two keys that
	// land in the same shard must evict the older one.
	c := NewCache(numShards)
	var a, b string
	keys := make(map[uint32]string)
	for i := 0; ; i++ {
		q := fmt.Sprintf("/q%d", i)
		k := cacheKey{scope: scopeS, query: q}
		idx := uint32(0)
		for j := range c.shards {
			if c.shardFor(k) == j {
				idx = uint32(j)
				break
			}
		}
		if prev, ok := keys[idx]; ok {
			a, b = prev, q
			break
		}
		keys[idx] = q
	}
	c.Put(scopeS, a, EstimateResult{Est: 1}, nil)
	c.Put(scopeS, b, EstimateResult{Est: 2}, nil)
	if _, ok := c.Get(scopeS, a, nil); ok {
		t.Fatalf("%s should have been evicted by %s", a, b)
	}
	if v, ok := c.Get(scopeS, b, nil); !ok || v.Est != 2 {
		t.Fatalf("%s missing after eviction of %s", b, a)
	}
}

// TestCacheCapacityBound pins the satellite fix: the configured capacity is
// a true total bound, not a per-shard round-up (capacity 1 used to inflate
// to one entry per shard, 16 resident).
func TestCacheCapacityBound(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, numShards, 33, 100} {
		c := NewCache(capacity)
		for i := 0; i < 500; i++ {
			c.Put(scopeS, fmt.Sprintf("/q%d", i), EstimateResult{Est: float64(i)}, nil)
		}
		if got := c.Stats().Entries; got > capacity {
			t.Errorf("capacity %d: %d resident entries", capacity, got)
		}
	}
	// A tiny cache still serves: a key landing in the one live shard sticks.
	c := NewCache(1)
	var kept string
	for i := 0; ; i++ {
		q := fmt.Sprintf("/q%d", i)
		if c.shardFor(cacheKey{scope: scopeS, query: q}) == 0 {
			kept = q
			break
		}
	}
	c.Put(scopeS, kept, EstimateResult{Est: 42}, nil)
	if v, ok := c.Get(scopeS, kept, nil); !ok || v.Est != 42 {
		t.Fatalf("capacity-1 cache lost its only admissible entry: %v %v", v, ok)
	}
	// Keys hashing to zero-capacity shards are refused, not crashed on.
	for i := 0; i < 64; i++ {
		q := fmt.Sprintf("/z%d", i)
		c.Put(scopeS, q, EstimateResult{Est: 1}, nil)
	}
	if got := c.Stats().Entries; got > 1 {
		t.Fatalf("capacity-1 cache holds %d entries", got)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				q := fmt.Sprintf("/q%d", i%64)
				c.Put(scopeS, q, EstimateResult{Est: float64(i)}, nil)
				c.Get(scopeS, q, nil)
				c.Stats()
			}
		}(g)
	}
	wg.Wait()
}

// sameShardKeys returns n query strings that all land in the shard holding
// capacity in a NewCache(numShards) layout (one entry per shard), so
// eviction behavior is deterministic.
func sameShardKeys(c *Cache, scope cacheScope, n int) []string {
	var out []string
	target := c.shardFor(cacheKey{scope: scope, query: "/probe"})
	for i := 0; len(out) < n; i++ {
		q := fmt.Sprintf("/k%d", i)
		if c.shardFor(cacheKey{scope: scope, query: q}) == target {
			out = append(out, q)
		}
	}
	return out
}

// TestCacheCostAwareEviction pins the cache-admission satellite: under
// pressure the LRU tail prefers dropping cheap entries, so an expensive
// (deep/recursive) estimate outlives a flood of cheap ones regardless of
// insertion order, while equal costs keep plain LRU order.
func TestCacheCostAwareEviction(t *testing.T) {
	// Expensive first, cheap second: the cheap newcomer is the victim.
	c := NewCache(numShards)
	keys := sameShardKeys(c, scopeS, 3)
	c.Put(scopeS, keys[0], EstimateResult{Est: 1, CostNs: 1_000_000}, nil)
	c.Put(scopeS, keys[1], EstimateResult{Est: 2, CostNs: 10}, nil)
	if _, ok := c.Get(scopeS, keys[0], nil); !ok {
		t.Fatal("expensive entry evicted by a cheap newcomer")
	}
	if _, ok := c.Get(scopeS, keys[1], nil); ok {
		t.Fatal("cheap newcomer admitted over a more expensive resident")
	}

	// Cheap first, expensive second: the cheap resident is the victim.
	c = NewCache(numShards)
	c.Put(scopeS, keys[0], EstimateResult{Est: 1, CostNs: 10}, nil)
	c.Put(scopeS, keys[1], EstimateResult{Est: 2, CostNs: 1_000_000}, nil)
	if _, ok := c.Get(scopeS, keys[1], nil); !ok {
		t.Fatal("expensive newcomer not admitted")
	}
	if _, ok := c.Get(scopeS, keys[0], nil); ok {
		t.Fatal("cheap resident survived an expensive newcomer")
	}

	// Equal costs: plain LRU (oldest goes) — the tiebreak never reorders
	// recency among equals.
	c = NewCache(numShards)
	c.Put(scopeS, keys[0], EstimateResult{Est: 1, CostNs: 50}, nil)
	c.Put(scopeS, keys[1], EstimateResult{Est: 2, CostNs: 50}, nil)
	if _, ok := c.Get(scopeS, keys[0], nil); ok {
		t.Fatal("equal-cost eviction did not follow LRU order")
	}
	if _, ok := c.Get(scopeS, keys[1], nil); !ok {
		t.Fatal("equal-cost newest entry missing")
	}
}

// TestCacheCostSaved: every hit credits the entry's recorded compute cost
// to the aggregate costSavedNs counter (estimates and compiled plans both).
func TestCacheCostSaved(t *testing.T) {
	c := NewCache(64)
	c.Put(scopeS, "/a/b", EstimateResult{Est: 7, CostNs: 500}, nil)
	c.Get(scopeS, "/a/b", nil)
	c.Get(scopeS, "/a/b", nil)
	c.Get(scopeS, "/missing", nil) // misses credit nothing
	if got := c.Stats().CostSavedNs; got != 1000 {
		t.Fatalf("costSavedNs = %d, want 1000", got)
	}
	_, syn := buildFixtureSynopsis(t, nil)
	sn := syn.Snapshot()
	p := sn.Compile(xseed.MustParseQuery("/a/b"))
	c.PutPlan(scopePlans, "/a/b", p, 200, nil)
	if got, ok := c.GetPlan(scopePlans, "/a/b", sn); !ok || got != p {
		t.Fatalf("plan roundtrip failed: %v %v", got, ok)
	}
	c.GetPlan(scopePlans, "/never-compiled", sn)
	st := c.Stats()
	if st.CostSavedNs != 1200 {
		t.Fatalf("costSavedNs after plan hit = %d, want 1200", st.CostSavedNs)
	}
	// Plan lookups are counted apart from estimate hits/misses.
	if st.PlanHits != 1 || st.PlanMisses != 1 {
		t.Fatalf("plan counters = %d/%d, want 1/1", st.PlanHits, st.PlanMisses)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("estimate counters moved with plan traffic: %d/%d", st.Hits, st.Misses)
	}
}

// TestCacheCostEvictionScopeBound: the cost tiebreak never reaches across
// scopes — an expensive entry of a retired (unreachable) scope at the LRU
// tail must not outrank live cheap fills, or a small shard would starve.
func TestCacheCostEvictionScopeBound(t *testing.T) {
	c := NewCache(numShards)
	keys := sameShardKeys(c, scopeDead, 2)
	c.Put(scopeDead, keys[0], EstimateResult{Est: 1, CostNs: 1_000_000}, nil)
	// A later version's cheap fill lands in the same shard (scopes share
	// the shard only via hashing — force it by probing).
	var liveScope cacheScope
	target := c.shardFor(cacheKey{scope: scopeDead, query: keys[0]})
	for i := uint64(1); ; i++ {
		s := cacheScope{id: scopeDead.id, ver: scopeDead.ver + i}
		if c.shardFor(cacheKey{scope: s, query: keys[0]}) == target {
			liveScope = s
			break
		}
	}
	c.Put(liveScope, keys[0], EstimateResult{Est: 2, CostNs: 10}, nil)
	if _, ok := c.Get(liveScope, keys[0], nil); !ok {
		t.Fatal("live cheap fill starved by a dead scope's expensive entry")
	}
	if _, ok := c.Get(scopeDead, keys[0], nil); ok {
		t.Fatal("dead-scope LRU-tail entry survived cross-scope pressure")
	}
}

// TestCachePlanEstimateNamespaces: a plan entry never answers an estimate
// Get and vice versa, even under an identical (scope, key) pair — and a
// plan compiled before the dictionary grew counts as a miss, not a hit.
func TestCachePlanEstimateNamespaces(t *testing.T) {
	_, syn := buildFixtureSynopsis(t, nil)
	sn := syn.Snapshot()
	c := NewCache(64)
	c.PutPlan(scopeS, "/a/b", sn.Compile(xseed.MustParseQuery("/a/b")), 1, nil)
	if _, ok := c.Get(scopeS, "/a/b", nil); ok {
		t.Fatal("estimate Get answered by a plan entry")
	}
	c.Put(scopeS, "/a/c", EstimateResult{Est: 3}, nil)
	if _, ok := c.GetPlan(scopeS, "/a/c", sn); ok {
		t.Fatal("GetPlan answered by an estimate entry")
	}
	// Staleness is the cache's own concern: grow the dictionary via a
	// subtree update and the cached plan must stop hitting.
	if err := syn.AddSubtree([]string{"a"}, "<brandnewlabel/>"); err != nil {
		t.Fatal(err)
	}
	grown := syn.Snapshot()
	before := c.Stats().PlanHits
	if _, ok := c.GetPlan(scopeS, "/a/b", grown); ok {
		t.Fatal("stale plan served after dictionary growth")
	}
	if c.Stats().PlanHits != before {
		t.Fatal("stale plan lookup counted as a hit")
	}
}
