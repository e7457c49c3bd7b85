package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"xseed"
	"xseed/api"
	"xseed/internal/fixtures"
	"xseed/internal/store"
)

// tenantTestSynopsis builds one fig2 synopsis for registry-level tests.
func tenantTestSynopsis(t testing.TB) *xseed.Synopsis {
	t.Helper()
	doc, err := xseed.ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := xseed.BuildSynopsis(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return syn
}

// TestTenantDefaultByteCompat is the compatibility lock for the tenancy
// rollout: a tokenless client against a -tenants server must see responses
// identical to an untenanted server's — same status, same normalized body —
// on every route it exercises. The single allowed divergence is the
// documented "tenants" rollup array inside /v1/stats, which normalization
// strips alongside the volatile "created" timestamps.
func TestTenantDefaultByteCompat(t *testing.T) {
	mk := func(tenants []TenantConfig) *httptest.Server {
		s, err := New(Config{CacheCapacity: 64, Tenants: tenants})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { s.Close() })
		return ts
	}
	plain := mk(nil)
	tenanted := mk([]TenantConfig{{ID: "acme", Token: "acme-tok"}})

	stripTenants := func(body string) string {
		var v map[string]any
		if err := jsonUnmarshal(body, &v); err != nil {
			return body
		}
		delete(v, "tenants")
		// costSavedNs is wall-clock-derived (nanoseconds saved by cache
		// hits) and so never byte-stable between two servers.
		if c, ok := v["cache"].(map[string]any); ok {
			delete(c, "costSavedNs")
		}
		return string(mustJSON(t, v))
	}

	steps := []struct {
		method, path string
		body         string
	}{
		{"GET", "/v1/healthz", ""},
		{"POST", "/v1/synopses", fmt.Sprintf(`{"name":"fig2","xml":%q}`, fixtures.PaperFigure2)},
		{"GET", "/v1/synopses", ""},
		{"GET", "/v1/synopses/fig2", ""},
		{"POST", "/v1/synopses/fig2/estimate", `{"queries":["/a/c/s","//s//p"]}`},
		{"POST", "/v1/synopses/fig2/estimate", `{"queries":["/a/c/s"]}`}, // warm-cache path
		{"POST", "/v1/synopses/fig2/feedback", `{"query":"/a/c/s","actual":5}`},
		{"POST", "/v1/synopses/nope/estimate", `{"queries":["/a"]}`}, // not_found parity
		{"GET", "/v1/synopses/nope", ""},
		{"POST", "/v1/admin/budget", `{"bytes":1000000}`},
		{"POST", "/v1/admin/compact", ""},
		{"GET", "/v1/stats", ""},
		{"DELETE", "/v1/synopses/fig2", ""},
	}
	for _, stp := range steps {
		run := func(ts *httptest.Server) (int, string) {
			var rd io.Reader
			if stp.body != "" {
				rd = strings.NewReader(stp.body)
			}
			req, err := http.NewRequest(stp.method, ts.URL+stp.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, stripTenants(normalizeBody(t, b))
		}
		wantStatus, wantBody := run(plain)
		gotStatus, gotBody := run(tenanted)
		if gotStatus != wantStatus {
			t.Errorf("%s %s: tenanted status %d, untenanted %d", stp.method, stp.path, gotStatus, wantStatus)
		}
		if gotBody != wantBody {
			t.Errorf("%s %s: tokenless bodies diverge\n tenanted:   %s\n untenanted: %s",
				stp.method, stp.path, gotBody, wantBody)
		}
	}
}

func jsonUnmarshal(s string, v any) error {
	return json.Unmarshal([]byte(s), v)
}

// TestTenantCrossNamespaceIsolation: one tenant's synopsis names do not
// resolve in another's namespace — not over HTTP, and not via NUL-forged
// names trying to alias a foreign tenant's key.
func TestTenantCrossNamespaceIsolation(t *testing.T) {
	s, err := New(Config{CacheCapacity: 64, Tenants: []TenantConfig{
		{ID: "acme", Token: "acme-tok"},
		{ID: "rival", Token: "rival-tok"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })

	do := func(token, method, path, body string) (int, string) {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if st, body := do("acme-tok", "POST", "/v1/synopses",
		fmt.Sprintf(`{"name":"doc","xml":%q}`, fixtures.PaperFigure2)); st != http.StatusCreated {
		t.Fatalf("acme create: %d %s", st, body)
	}
	// Same bare name is free in every other namespace.
	if st, body := do("rival-tok", "POST", "/v1/synopses",
		fmt.Sprintf(`{"name":"doc","xml":%q}`, fixtures.PaperFigure2)); st != http.StatusCreated {
		t.Fatalf("rival create of same bare name: %d %s", st, body)
	}
	// A tenant sees only its own listing.
	for _, tok := range []string{"acme-tok", "rival-tok"} {
		if st, body := do(tok, "GET", "/v1/synopses", ""); st != http.StatusOK || strings.Count(body, `"name"`) != 1 {
			t.Fatalf("%s listing: %d %s, want exactly its own synopsis", tok, st, body)
		}
	}
	// The default tenant does not see either, and deleting by bare name 404s.
	if st, body := do("", "GET", "/v1/synopses/doc", ""); st != http.StatusNotFound {
		t.Fatalf("default tenant reads acme's synopsis: %d %s", st, body)
	}
	// NUL-forged names cannot alias a qualified key from another namespace.
	forged := "/v1/synopses/acme%00doc"
	if st, body := do("", "GET", forged, ""); st != http.StatusBadRequest {
		t.Fatalf("NUL-forged name: %d %s, want 400", st, body)
	}
	// Tenant-scoped estimate works against its own copy.
	if st, body := do("acme-tok", "POST", "/v1/synopses/doc/estimate", `{"queries":["/a/c/s"]}`); st != http.StatusOK {
		t.Fatalf("acme estimate: %d %s", st, body)
	}
}

// TestTenantIsolationHammer is the noisy-neighbor test (run under -race in
// CI): tenant "noisy" floods feedback writes and distinct-query cache fills
// while tenant "victim" replays a tiny query set. Isolation holds when the
// victim's requests all succeed, its cache hit rate stays high (the noisy
// tenant's quota makes it evict its own entries, never the victim's), the
// noisy tenant's cache occupancy respects its quota, and the victim's
// latency stays bounded.
func TestTenantIsolationHammer(t *testing.T) {
	const noisyQuota = 32
	s, err := New(Config{CacheCapacity: 4096, Tenants: []TenantConfig{
		{ID: "noisy", Token: "noisy-tok", CacheQuota: noisyQuota},
		{ID: "victim", Token: "victim-tok"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	reg := s.Registry()
	ts := reg.Tenants()
	noisy, victim := ts.lookup("noisy"), ts.lookup("victim")

	if _, err := reg.Add(store.Key("noisy", "doc"), tenantTestSynopsis(t), "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add(store.Key("victim", "doc"), tenantTestSynopsis(t), "test"); err != nil {
		t.Fatal(err)
	}
	victimQueries := []string{"/a/c/s", "//s//p", "/a/b", "//c/s"}
	// Warm the victim's working set so the steady state is all hits.
	for _, q := range victimQueries {
		if _, err := reg.EstimateBatch(context.Background(), store.Key("victim", "doc"), []string{q}, false); err != nil {
			t.Fatal(err)
		}
	}
	h0, m0 := victim.hits.load(), victim.misses.load()

	const hammerWorkers, hammerIters = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < hammerWorkers; w++ {
		wg.Add(1)
		go func(w int) { // noisy: distinct-query cache fills
			defer wg.Done()
			for i := 0; i < hammerIters; i++ {
				q := fmt.Sprintf("/a/c/s%d_%d", w, i)
				if _, err := reg.EstimateBatch(context.Background(), store.Key("noisy", "doc"), []string{q}, false); err != nil {
					t.Errorf("noisy estimate: %v", err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() { // noisy: feedback flood
			defer wg.Done()
			for i := 0; i < hammerIters; i++ {
				if err := reg.Feedback(store.Key("noisy", "doc"), "/a/c/s", float64(1+i%7)); err != nil {
					t.Errorf("noisy feedback: %v", err)
					return
				}
			}
		}()
	}
	var victimLat []time.Duration
	wg.Add(1)
	go func() { // victim: steady reads over its warmed set
		defer wg.Done()
		for i := 0; i < hammerWorkers*hammerIters/2; i++ {
			q := victimQueries[i%len(victimQueries)]
			start := time.Now()
			items, err := reg.EstimateBatch(context.Background(), store.Key("victim", "doc"), []string{q}, false)
			victimLat = append(victimLat, time.Since(start))
			if err != nil || items[0].Error != nil {
				t.Errorf("victim estimate %q: %v %v", q, err, items[0].Error)
				return
			}
		}
	}()
	wg.Wait()

	if got := reg.cache.TenantEntries(noisy); got > noisyQuota {
		t.Errorf("noisy tenant holds %d cache entries, quota is %d", got, noisyQuota)
	}
	hits, misses := victim.hits.load()-h0, victim.misses.load()-m0
	if tot := hits + misses; tot == 0 || float64(hits)/float64(tot) < 0.95 {
		t.Errorf("victim hit rate %d/%d under flood; noisy neighbor evicted its working set", hits, tot)
	}
	sort.Slice(victimLat, func(i, j int) bool { return victimLat[i] < victimLat[j] })
	if p99 := victimLat[len(victimLat)*99/100]; p99 > 250*time.Millisecond {
		// Generous absolute bound: cached estimates are microseconds; only a
		// victim serialized behind the flood would get anywhere near it.
		t.Errorf("victim p99 = %v under flood", p99)
	}
}

// TestCacheTenantQuotaBounds pins quota mechanics at the cache layer: an
// over-quota tenant evicts its own LRU entry (fleet occupancy permitting),
// other tenants' entries are untouched, and plan entries count against the
// same quota.
func TestCacheTenantQuotaBounds(t *testing.T) {
	ts, err := NewTenantSet(nil, []TenantConfig{
		{ID: "capped", Token: "a", CacheQuota: numShards}, // one entry per shard
		{ID: "free", Token: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	capped, free := ts.lookup("capped"), ts.lookup("free")
	c := NewCache(numShards * 64)

	for i := 0; i < numShards*8; i++ {
		c.Put(scopeS, fmt.Sprintf("/q%d", i), EstimateResult{Est: float64(i)}, capped)
		c.Put(scopeS, fmt.Sprintf("/free%d", i), EstimateResult{Est: float64(i)}, free)
	}
	if got := c.TenantEntries(capped); got > numShards {
		t.Errorf("capped tenant occupies %d entries, quota %d", got, numShards)
	}
	if got := c.TenantEntries(free); got != numShards*8 {
		t.Errorf("unquota'd tenant occupies %d entries, want %d untouched", got, numShards*8)
	}
	// The capped tenant still caches: its newest entry is resident.
	last := fmt.Sprintf("/q%d", numShards*8-1)
	if _, ok := c.Get(scopeS, last, capped); !ok {
		t.Errorf("capped tenant's most recent entry was not cached")
	}
}

// TestTenantStatsRollups: the default tenant's /v1/stats carries per-tenant
// rollups on a tenanted server, scoped stats carry only the caller's view,
// and the rollup numbers agree with the tenants' own counters.
func TestTenantStatsRollups(t *testing.T) {
	s, err := New(Config{CacheCapacity: 256, Tenants: []TenantConfig{
		{ID: "acme", Token: "acme-tok", CacheQuota: 17},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	reg := s.Registry()
	acme := reg.Tenants().lookup("acme")

	if _, err := reg.Add(store.Key("acme", "doc"), tenantTestSynopsis(t), "test"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // one miss, one hit
		if _, err := reg.EstimateBatch(context.Background(), store.Key("acme", "doc"), []string{"/a/c/s"}, false); err != nil {
			t.Fatal(err)
		}
	}

	admin := reg.StatsFor(nil)
	var acmeRoll *api.TenantStats
	for i := range admin.Tenants {
		if admin.Tenants[i].ID == "acme" {
			acmeRoll = &admin.Tenants[i]
		}
	}
	if acmeRoll == nil {
		t.Fatalf("admin stats carry no acme rollup: %+v", admin.Tenants)
	}
	if acmeRoll.Synopses != 1 || acmeRoll.CacheQuota != 17 {
		t.Errorf("acme rollup = %+v", acmeRoll)
	}
	if acmeRoll.CacheHits != 1 || acmeRoll.CacheMisses != 1 {
		t.Errorf("acme rollup hits/misses = %d/%d, want 1/1", acmeRoll.CacheHits, acmeRoll.CacheMisses)
	}

	scoped := reg.StatsFor(acme)
	if scoped.Tenants != nil {
		t.Error("tenant-scoped stats leak the fleet rollup")
	}
	if len(scoped.Synopses) != 1 || scoped.Synopses[0].Name != "doc" {
		t.Errorf("scoped synopses = %+v, want bare-named doc", scoped.Synopses)
	}
	// Entries is 2: the cached estimate plus its compiled plan, both owned
	// by (and counted against) the tenant.
	if scoped.Cache.Hits != 1 || scoped.Cache.Misses != 1 || scoped.Cache.Entries != 2 {
		t.Errorf("scoped cache stats = %+v, want the tenant's own hits=1 misses=1 entries=2", scoped.Cache)
	}
}
