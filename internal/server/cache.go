package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"xseed"
	"xseed/api"
	"xseed/internal/pathhash"
)

// numShards is the number of independently locked cache shards. Shard
// selection hashes the full (synopsis, query) key, so concurrent estimate
// traffic — even against a single synopsis — spreads across locks.
const numShards = 16

// evictionWindow is how many least-recently-used entries an over-capacity
// shard considers before evicting: the cheapest (lowest CostNs) of the
// window goes, so recency still dominates but an expensive deep/recursive
// estimate outlives same-age cheap ones under pressure (the cost-aware
// LRU tiebreak of the cache-admission roadmap item).
const evictionWindow = 4

// EstimateResult is a cached estimate. CostNs records what the uncached
// computation cost, which (a) feeds the cache.costSavedNs stats counter on
// every later hit and (b) biases eviction toward cheap entries. It is
// wall-clock time: under a saturated worker pool scheduler contention
// inflates it somewhat, so it is an eviction *tiebreak* signal and a
// savings *estimate*, not a calibrated CPU-time measurement.
type EstimateResult struct {
	Est      float64
	Streamed bool
	CostNs   int64
}

// cacheScope identifies what a cached value was computed against: the
// registry entry (its id is registry-unique, so a replaced or re-registered
// name never shares a scope) and, for estimates, the estimation-snapshot
// version. Compiled plans are version-free; the plan marker keys them apart
// from estimates, so the same (scope, query) pair never collides across the
// two kinds; GetPlan and PutPlan set it.
type cacheScope struct {
	id   uint64
	ver  uint64
	plan bool
}

type cacheKey struct {
	scope cacheScope
	query string // normalized (parsed and re-rendered) form; raw for plans
}

// planKey keys a compiled plan: its scope with the plan marker set.
func planKey(s cacheScope, raw string) cacheKey {
	s.plan = true
	return cacheKey{scope: s, query: raw}
}

type cacheEntry struct {
	key  cacheKey
	val  EstimateResult
	plan *xseed.Plan // non-nil: a compiled-plan entry (val holds compile cost only)
	ten  *Tenant     // owner, for quota accounting (nil: unaccounted)
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int        // max entries this shard holds (0: shard is disabled)
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element

	// tenCount tracks per-tenant occupancy for quota enforcement; keys are
	// deleted at zero so an idle tenant costs nothing here.
	tenCount map[*Tenant]int
}

// Cache is a sharded LRU cache of estimate results keyed on (synopsis
// scope, normalized query string), which also stores compiled query plans
// keyed on (plan scope, raw query string) so repeat queries skip
// parse + compile entirely. It serves repeat estimates without touching the
// kernel/EPT machinery or any synopsis state. Invalidation is the
// registry's job: estimate scopes embed the estimation-snapshot version
// (Entry.scopeFor), so a mutation retires every cached estimate by
// publishing the next snapshot; plan scopes are version-free (plans survive
// feedback, which never changes the dictionary) and stale plans are
// detected per-hit with Plan.CompatibleWith.
type Cache struct {
	shards     [numShards]cacheShard
	hits       atomic.Int64
	misses     atomic.Int64
	planHits   atomic.Int64 // compiled-plan lookups, counted apart from estimates
	planMisses atomic.Int64
	costSaved  atomic.Int64 // Σ CostNs of served hits (estimates and plans)
	evictions  atomic.Int64
}

// NewCache returns a cache holding at most capacity entries in total
// (capacity <= 0 picks a default of 4096). Capacity is distributed across
// the shards with the remainder spread one entry at a time, so the total is
// honored exactly: a capacity of 1 holds at most 1 entry, not one per shard.
// Shards left with zero capacity never admit entries, which costs hit rate
// at tiny capacities but keeps the configured memory bound true.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 4096
	}
	base, rem := capacity/numShards, capacity%numShards
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].cap = base
		if i < rem {
			c.shards[i].cap++
		}
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[cacheKey]*list.Element)
		c.shards[i].tenCount = make(map[*Tenant]int)
	}
	return c
}

func (c *Cache) shardFor(k cacheKey) int {
	// A multiplicative mix spreads consecutive ids and versions over the
	// shards.
	s := k.scope.id<<1 ^ k.scope.ver*0x9e3779b97f4a7c15
	if k.scope.plan {
		s ^= 1
	}
	h := pathhash.String(k.query) ^ uint32((s*0xbf58476d1ce4e5b9)>>32)
	return int(h % numShards)
}

// Get returns the cached result for (scope, query), if present. ten (may be
// nil) receives the tenant-scoped hit/miss accounting: the counters are
// striped per shard and bumped under the shard lock already held, so tenant
// stats add no atomics contended across shards.
func (c *Cache) Get(scope cacheScope, query string, ten *Tenant) (EstimateResult, bool) {
	k := cacheKey{scope: scope, query: query}
	si := c.shardFor(k)
	s := &c.shards[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		e := el.Value.(*cacheEntry)
		s.ll.MoveToFront(el)
		c.hits.Add(1)
		if ten != nil {
			ten.hits.add(si)
		}
		c.costSaved.Add(e.val.CostNs)
		return e.val, true
	}
	c.misses.Add(1)
	if ten != nil {
		ten.misses.add(si)
	}
	return EstimateResult{}, false
}

// Put stores a result, evicting from the shard's least-recently-used tail
// when the shard is full, and from the owning tenant's own entries when its
// quota is full.
func (c *Cache) Put(scope cacheScope, query string, v EstimateResult, ten *Tenant) {
	c.put(&cacheEntry{key: cacheKey{scope: scope, query: query}, val: v, ten: ten})
}

// GetPlan returns the cached compiled plan for (scope, raw query) when it
// is present AND still authoritative for the pinned snapshot sn. A stale
// plan (the dictionary grew since compilation) counts as a miss — no hit
// counter, no costSaved credit, no LRU refresh — since the caller re-pays
// the full parse + compile and overwrites the entry via PutPlan.
func (c *Cache) GetPlan(scope cacheScope, raw string, sn *xseed.Snapshot) (*xseed.Plan, bool) {
	k := planKey(scope, raw)
	s := &c.shards[c.shardFor(k)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		if e := el.Value.(*cacheEntry); e.plan.CompatibleWith(sn) {
			s.ll.MoveToFront(el)
			c.planHits.Add(1)
			c.costSaved.Add(e.val.CostNs)
			return e.plan, true
		}
	}
	c.planMisses.Add(1)
	return nil, false
}

// PutPlan stores a compiled plan; costNs is what parse + compile cost. Plan
// entries count toward the owning tenant's cache quota like estimate
// entries do (both occupy the same capacity).
func (c *Cache) PutPlan(scope cacheScope, raw string, p *xseed.Plan, costNs int64, ten *Tenant) {
	c.put(&cacheEntry{key: planKey(scope, raw), val: EstimateResult{CostNs: costNs}, plan: p, ten: ten})
}

func (c *Cache) put(e *cacheEntry) {
	si := c.shardFor(e.key)
	s := &c.shards[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[e.key]; ok {
		// Replacement: the key embeds the owning entry's id, so the owner
		// cannot change and occupancy counts stay put.
		e.ten = el.Value.(*cacheEntry).ten
		*el.Value.(*cacheEntry) = *e
		s.ll.MoveToFront(el)
		return
	}
	if s.cap == 0 {
		return
	}
	if t := e.ten; t != nil && t.cacheQuota > 0 && s.tenCount[t] >= t.quotaForShard(si) {
		// Over quota: this fill may only displace one of the tenant's own
		// entries. A zero per-shard quota admits nothing (exactly like a
		// zero-capacity shard).
		if !s.evictOwn(t) {
			return
		}
		c.evictions.Add(1)
	}
	s.items[e.key] = s.ll.PushFront(e)
	if e.ten != nil {
		s.tenCount[e.ten]++
	}
	if s.ll.Len() > s.cap {
		s.evict()
		c.evictions.Add(1)
	}
}

// evictOwn removes the least-recently-used entry owned by t, reporting
// false when t has none in this shard (per-shard quota 0).
func (s *cacheShard) evictOwn(t *Tenant) bool {
	for el := s.ll.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*cacheEntry); e.ten == t {
			s.removeEntry(el, e)
			return true
		}
	}
	return false
}

// removeEntry unlinks one entry and settles its tenant accounting.
func (s *cacheShard) removeEntry(el *list.Element, e *cacheEntry) {
	s.ll.Remove(el)
	delete(s.items, e.key)
	if e.ten != nil {
		if n := s.tenCount[e.ten] - 1; n > 0 {
			s.tenCount[e.ten] = n
		} else {
			delete(s.tenCount, e.ten)
		}
	}
}

// evict removes one entry: the cheapest (lowest CostNs) among the
// evictionWindow least recently used that share the LRU entry's scope, so
// the tail's expensive entries survive a flood of cheap same-scope ones.
// The cost tiebreak deliberately never reaches across scopes: entries of a
// retired snapshot scope are unreachable, and letting a dead-but-expensive
// entry outrank live cheap fills would pin it forever in small shards —
// across scopes, plain LRU order applies and dead scopes age out normally.
func (s *cacheShard) evict() {
	victim := s.ll.Back()
	scope := victim.Value.(*cacheEntry).key.scope
	el := victim
	for i := 1; i < evictionWindow && el != nil; i++ {
		el = el.Prev()
		if el == nil {
			break
		}
		e := el.Value.(*cacheEntry)
		if e.key.scope == scope && e.val.CostNs < victim.Value.(*cacheEntry).val.CostNs {
			victim = el
		}
	}
	s.removeEntry(victim, victim.Value.(*cacheEntry))
}

// TenantEntries reports how many cache entries t occupies across shards
// (the quota the eviction policy enforces).
func (c *Cache) TenantEntries(t *Tenant) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.tenCount[t]
		s.mu.Unlock()
	}
	return n
}

// Stats reports entry count and hit/miss/cost counters as the wire type.
func (c *Cache) Stats() api.CacheStats {
	var st api.CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.ll.Len()
		s.mu.Unlock()
	}
	st.Hits = c.hits.Load()
	st.Misses = c.misses.Load()
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	st.PlanHits = c.planHits.Load()
	st.PlanMisses = c.planMisses.Load()
	st.CostSavedNs = c.costSaved.Load()
	st.Evictions = c.evictions.Load()
	return st
}
