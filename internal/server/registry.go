// Package server is the xseedd serving subsystem: a concurrent registry of
// named XSEED synopses, a sharded LRU cache of estimate results and
// compiled query plans, and an HTTP JSON API over both.
//
// The estimate path is lock-free: a batch pins the synopsis's immutable
// estimation snapshot (one atomic load), estimates every cache miss against
// it — fanning large batches across a bounded worker pool — and caches
// results under a scope embedding the snapshot's version, so a concurrent
// mutation can never publish a stale value into the new scope. After the
// entry lookup, the only synchronization an estimate touches is the cache's
// fine-grained shard mutexes; it never acquires the entry's RWMutex, which
// now exists solely to serialize mutators (feedback, subtree updates,
// budget application, snapshot serialization) against each other.
//
// Budget rebalancing is split into planning and application: registry-shape
// changes compute per-entry targets under the registry lock (no entry locks
// taken) and a background worker applies them under each entry's own lock,
// so a slow critical section on one synopsis never stalls estimates to the
// others. Budgets are therefore eventually applied; /stats exposes the plan
// and applied generations.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xseed"
	"xseed/api"
	"xseed/internal/logx"
	"xseed/internal/metrics"
	"xseed/internal/obs"
	"xseed/internal/store"
)

// ErrNotFound and ErrExists classify registry failures for the HTTP layer
// (matched with errors.Is, never by message text).
var (
	ErrNotFound = errors.New("not found")
	ErrExists   = errors.New("already exists")
)

// Entry is one registered synopsis plus its lock and serving counters.
type Entry struct {
	name    string        // qualified registry key: store.Key(tenant, bare)
	bare    string        // name within the tenant's namespace (what clients see)
	ten     *Tenant       // owning tenant (never nil; default on untenanted servers)
	id      uint64        // registry-unique; scopes this entry's cache keys
	ver     atomic.Uint64 // durable mutation counter, persisted with base snapshots
	source  string        // human-readable provenance ("xml upload", "dataset xmark", ...)
	created time.Time

	// mu serializes mutators (feedback, subtree updates, budget application,
	// snapshot serialization) against each other — the synopsis requires
	// that. Estimates do NOT take it: they pin the synopsis's estimation
	// snapshot and run lock-free, so a wedged mutation never stalls reads.
	mu  sync.RWMutex
	syn *xseed.Synopsis

	// retired flips (under the registry lock) when this entry leaves the
	// registry map — replaced by Put or removed by Delete. A mutation that
	// captured the entry before that must not persist its delta: the store
	// log for this name now belongs to the successor's generation, and a
	// stale record replayed onto the successor's base would diverge the
	// restarted daemon from the live one.
	retired atomic.Bool

	// replica marks an entry hosted as a warm standby for another cluster
	// node's primary: it applies replicated delta-log segments, is hidden
	// from listings, and serves no client traffic (the ownership check
	// answers with a moved error first). Flipped by the cluster manager on
	// ring epoch changes; failover is one Store(false).
	replica atomic.Bool

	// kernBytes mirrors syn.KernelSizeBytes() so the rebalance planner can
	// snapshot kernel sizes under r.mu without touching entry locks (the
	// whole point of planning: never block the registry on a slow entry
	// critical section). Updated after every subtree mutation.
	kernBytes atomic.Int64

	// lastBudget is the last SetBudget applied by rebalancing: 0 = never
	// touched (the synopsis keeps its build-time budget), -1 = fleet budget
	// explicitly lifted. Guarded by mu, like budgetGen — the planner
	// deliberately never reads it (apply-time decisions under mu are what
	// keep lift plans race-free against in-flight constraining plans).
	lastBudget int
	budgetGen  uint64 // rebalance plan generation of lastBudget; guarded by mu

	estimates atomic.Int64 // uncached estimates served
	feedbacks atomic.Int64
	updates   atomic.Int64
	acc       *metrics.Online // accuracy observed via feedback

	// Feedback coalescing: concurrent feedback ops enqueue onto fbQueue and
	// the first arriver (fbActive's winner) becomes the publisher — it
	// drains the queue under mu, applies every delta with publication
	// deferred, and publishes ONE successor snapshot per drain round, so a
	// feedback storm pays the O(resident) view copy once per round instead
	// of once per event. fbMu guards only the queue and is never held while
	// applying. Log order still equals apply order: the publisher appends
	// each delta inside the same mu critical section that applied it.
	fbMu     sync.Mutex
	fbQueue  []*fbOp
	fbActive bool

	// stages and qerr are this entry's hot-path metric handles, resolved
	// once at creation (inert when the registry's obs.Registry is Disabled):
	// per-stage estimate latency and the online q-error histogram whose
	// quantiles Info() serves. Keyed by name, so a Put replacement inherits
	// the series (counters stay monotone) and Delete ends them.
	stages *obs.StageSet
	qerr   *obs.Histogram
}

// Synopsis returns the underlying synopsis. Callers must hold the entry's
// lock discipline themselves; it exists for tests and trusted callers.
func (e *Entry) Synopsis() *xseed.Synopsis { return e.syn }

// scopeFor is the cache's synopsis identifier for estimates computed
// against sn: the entry's registry-unique id plus the estimation snapshot's
// version. A mutation publishes the successor snapshot inside its critical
// section, so every later batch pins a higher version and the old scope —
// including fills still in flight from readers pinned to the old snapshot —
// is unreachable and ages out of the LRU. No stale value can
// ever land in the new scope, because fills are keyed by the version the
// value was computed from. The id covers replacement: when a name is Put
// over or deleted and re-registered, the new entry's scope shares nothing
// with the old one's.
func (e *Entry) scopeFor(sn *xseed.Snapshot) cacheScope {
	return cacheScope{id: e.id, ver: sn.Version()}
}

// planScope keys the entry's compiled-plan cache (GetPlan and PutPlan add
// the plan marker). Deliberately version-free: plans depend only on the
// label dictionary (append-only, so only subtree updates can grow it), which
// is exactly why they survive the feedback storms that retire every estimate
// scope; staleness after a dictionary change is detected per-hit with
// Plan.CompatibleWith.
func (e *Entry) planScope() cacheScope {
	return cacheScope{id: e.id}
}

// invalidate bumps the durable mutation counter persisted with base
// snapshots. Cache invalidation no longer depends on it — that is the
// estimation snapshot version's job — but the count still travels through
// the store so a restarted registry resumes it. Callers must hold e.mu
// exclusively (it marks a mutation of the synopsis).
func (e *Entry) invalidate() { e.ver.Add(1) }

// Registry manages named synopses under an aggregate memory budget.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	budget  int // aggregate bytes across all synopses; 0 = unlimited
	// everBudgeted flips when a constraining plan is created (or a
	// constrained synopsis is restored); until then a zero budget plans
	// nothing, so budget-less registries pay no rebalance overhead.
	everBudgeted bool
	ids          atomic.Uint64

	cache *Cache

	// tenants resolves (tenant, name) keys to their owning Tenant. Never
	// nil: NewRegistry installs a disabled single-tenant set; the server
	// swaps in the real one (AttachTenants) before any entry is registered.
	tenants *TenantSet

	// estSem globally bounds the *extra* worker goroutines EstimateBatch
	// spawns for large miss sets: each batch always works on its own
	// request goroutine and adds helpers only while a slot is free, so K
	// concurrent large batches share one GOMAXPROCS-sized pool instead of
	// starting K×GOMAXPROCS CPU-bound goroutines.
	estSem chan struct{}

	// st, when attached, makes every registry mutation durable: new and
	// replaced synopses get a full base snapshot, while feedback, subtree
	// updates, and budget changes append O(delta) records to the synopsis's
	// log inside the same critical section that applied them in memory (so
	// the log order is the apply order). Nil means no persistence.
	st  *store.Store
	log *slog.Logger

	// obs holds the registry's metric families (see obsmetrics.go). Always
	// non-nil; built over obs.Disabled the handles are inert.
	obs *regMetrics

	// registerMu serializes Add/Put registrations end to end so the store's
	// base-write order for a name always matches the registry's map-update
	// order (two racing Puts of one name must not commit their manifests in
	// the opposite order of their map swaps).
	registerMu sync.Mutex

	// registerHook, when set, runs inside register's base-snapshot critical
	// section (new entry write-locked, registerMu held). Test-only: it is
	// how the contention tests stall a registration the way a slow fsync or
	// an in-flight compaction of the same name would.
	registerHook func(name string)

	// Budget rebalancing is asynchronous when the worker is running (see
	// StartRebalancer): registry-shape changes plan under r.mu — a cheap
	// snapshot of entry pointers and atomically-read kernel sizes — and the
	// worker applies SetBudget/AppendBudget per entry under only that
	// entry's lock. rebalGen stamps each plan (bumped under r.mu, so plans
	// are totally ordered by registry state); rebalApplied trails it and the
	// two together expose progress in /stats. pending is a one-plan
	// coalescing slot: a burst of shape changes overwrites it and the worker
	// applies only the newest plan. Without the worker (Restore during
	// recovery, bare registries in tests) plans apply synchronously on the
	// caller, preserving the old apply-before-return contract.
	rebalGen     atomic.Uint64
	rebalApplied atomic.Uint64
	rebalMu      sync.Mutex // guards the fields below; never held while applying
	rebalCond    *sync.Cond // signaled on new plan, plan applied, and close
	pending      *rebalPlan
	rebalOn      bool // worker goroutine is running
	rebalClosed  bool
	rebalWG      sync.WaitGroup
}

// rebalPlan is one planned redistribution of the aggregate budget: the
// per-entry targets computed from a snapshot of the registry's shape.
type rebalPlan struct {
	gen     uint64
	targets []rebalTarget
}

type rebalTarget struct {
	e      *Entry
	target int // total budget bytes for this entry's SetBudget
}

// NewRegistry returns a registry whose estimate cache holds cacheCapacity
// entries (<= 0 for the default) and whose synopses together target
// aggregateBudgetBytes of memory (0 = unlimited). Kernels are irreducible:
// when their sizes alone exceed the budget, hyper-edge tables are emptied
// but the kernels stay resident.
func NewRegistry(cacheCapacity, aggregateBudgetBytes int) *Registry {
	return NewRegistryObs(cacheCapacity, aggregateBudgetBytes, obs.Disabled)
}

// NewRegistryObs is NewRegistry with a metrics registry: estimate-stage
// latency, per-synopsis accuracy, cache, and rebalance families register on
// om and appear on its exposition. Pass obs.Disabled (what NewRegistry
// does) for a registry with instrumentation compiled in but inert — the
// overhead benchmark's baseline.
func NewRegistryObs(cacheCapacity, aggregateBudgetBytes int, om *obs.Registry) *Registry {
	r := &Registry{
		entries: make(map[string]*Entry),
		budget:  aggregateBudgetBytes,
		cache:   NewCache(cacheCapacity),
		log:     logx.Discard(),
		estSem:  make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
	r.obs = newRegMetrics(om)
	r.obs.wire(r)
	r.tenants = noTenants()
	r.rebalCond = sync.NewCond(&r.rebalMu)
	return r
}

// AttachTenants installs the tenant set. Call before any entry is
// registered (the server does this before store recovery), so every entry
// resolves its tenant against the final set.
func (r *Registry) AttachTenants(ts *TenantSet) {
	if ts == nil {
		return
	}
	r.mu.Lock()
	r.tenants = ts
	r.mu.Unlock()
}

// Tenants returns the registry's tenant set.
func (r *Registry) Tenants() *TenantSet {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tenants
}

// StartRebalancer launches the background budget rebalancer. Before it runs
// — and again after Close — budget plans apply synchronously on the caller,
// which is what registry recovery (Restore) relies on. Idempotent.
func (r *Registry) StartRebalancer() {
	r.rebalMu.Lock()
	defer r.rebalMu.Unlock()
	if r.rebalOn || r.rebalClosed {
		return
	}
	r.rebalOn = true
	r.rebalWG.Add(1)
	go r.rebalanceWorker()
}

// Close drains the rebalancer: any pending budget plan is applied — and its
// budget deltas appended to the store — before Close returns, so a graceful
// shutdown can flush the store afterwards without losing planned budgets.
// The registry stays usable; later shape changes rebalance synchronously.
func (r *Registry) Close() {
	r.rebalMu.Lock()
	if !r.rebalClosed {
		r.rebalClosed = true
		r.rebalCond.Broadcast()
	}
	r.rebalMu.Unlock()
	r.rebalWG.Wait()
}

func (r *Registry) rebalanceWorker() {
	defer r.rebalWG.Done()
	for {
		r.rebalMu.Lock()
		for r.pending == nil && !r.rebalClosed {
			r.rebalCond.Wait()
		}
		p := r.pending
		r.pending = nil
		if p == nil {
			// Closed with nothing pending: flip rebalOn inside this critical
			// section so a dispatch that lost the race falls back to applying
			// synchronously instead of parking a plan nobody will pick up.
			r.rebalOn = false
			r.rebalMu.Unlock()
			return
		}
		r.rebalMu.Unlock()
		r.applyPlan(p)
	}
}

// planRebalanceLocked computes per-entry budget targets from the current
// registry shape: each synopsis keeps its kernel and gets an equal share of
// its budget domain's remaining bytes for its hyper-edge table (the paper's
// dynamic reconfiguration, applied fleet-wide). Budget domains partition
// the registry by tenant: a tenant with a private budget plans over its own
// synopses alone, and everyone else — including the whole registry on an
// untenanted server — pools under the fleet budget, so the untenanted plan
// is exactly the pre-tenancy one. A domain with no budget (unlimited)
// plans the lift target (-1) for entries a previous rebalance constrained;
// whether an entry was actually constrained is decided at apply time under
// its own lock (deciding here from lastBudget would race an in-flight
// constraining plan and could leave a synopsis pinned at a tight budget
// forever). Caller holds r.mu. Kernel sizes and tenant budgets come from
// atomic mirrors, so planning never blocks on an entry's critical section;
// they may be slightly stale, which is fine — a budget is a target, not an
// invariant.
func (r *Registry) planRebalanceLocked() *rebalPlan {
	if len(r.entries) == 0 {
		return nil
	}
	var fleet []*Entry
	var private map[*Tenant][]*Entry
	for _, e := range r.entries {
		if e.replica.Load() {
			// Standby replicas never plan or apply budgets locally: a budget
			// apply appends to the delta log, and a replica's log must stay
			// byte-identical to its primary's — the primary's own budget
			// records arrive through replication instead.
			continue
		}
		if e.ten != nil && e.ten.budget.Load() > 0 {
			if private == nil {
				private = make(map[*Tenant][]*Entry)
			}
			private[e.ten] = append(private[e.ten], e)
		} else {
			fleet = append(fleet, e)
		}
	}
	if r.budget > 0 || len(private) > 0 {
		r.everBudgeted = true
	}
	if !r.everBudgeted {
		return nil
	}
	targets := make([]rebalTarget, 0, len(r.entries))
	appendDomain := func(ents []*Entry, budget int) {
		if len(ents) == 0 {
			return
		}
		if budget <= 0 {
			for _, e := range ents {
				targets = append(targets, rebalTarget{e: e, target: -1})
			}
			return
		}
		kernels := 0
		start := len(targets)
		for _, e := range ents {
			k := int(e.kernBytes.Load())
			targets = append(targets, rebalTarget{e: e, target: k})
			kernels += k
		}
		share := (budget - kernels) / len(ents)
		if share < 0 {
			share = 0
		}
		for i := start; i < len(targets); i++ {
			targets[i].target += share
		}
	}
	appendDomain(fleet, r.budget)
	for t, ents := range private {
		appendDomain(ents, int(t.budget.Load()))
	}
	return &rebalPlan{gen: r.rebalGen.Add(1), targets: targets}
}

// dispatch hands a plan to the worker (coalescing: a newer plan overwrites
// an unapplied older one — never the reverse, since planning under r.mu and
// dispatching here are separate steps and two shape changes can reach this
// point out of order) or, with no worker running, applies it inline.
// Callers must not hold r.mu.
func (r *Registry) dispatch(p *rebalPlan) {
	if p == nil {
		return
	}
	r.rebalMu.Lock()
	if r.rebalOn {
		if r.pending == nil || p.gen > r.pending.gen {
			r.pending = p
		}
		r.rebalCond.Broadcast()
		r.rebalMu.Unlock()
		return
	}
	r.rebalMu.Unlock()
	r.applyPlan(p)
}

// applyPlan applies one plan's SetBudget targets, taking only each entry's
// lock in turn — never r.mu, so a slow entry critical section (a base
// snapshot fsync, a stuck feedback) never touches the serving path. A first
// pass TryLocks, so a wedged entry delays only its own budget, not the rest
// of the plan's; the second pass waits the stragglers out, still yielding
// to a superseding plan (whose targets are fresher for every entry).
// Entries that retired since planning are skipped. Budget deltas append
// inside the entry critical section, so replay order still equals apply
// order.
func (r *Registry) applyPlan(p *rebalPlan) {
	r.mu.RLock()
	st, lg := r.st, r.log
	r.mu.RUnlock()
	var busy []rebalTarget
	superseded := func() bool { return r.rebalGen.Load() > p.gen }
	for _, t := range p.targets {
		if superseded() {
			busy = nil
			break
		}
		if !r.applyTarget(st, lg, p, t, false) {
			busy = append(busy, t)
		}
	}
	for _, t := range busy {
		if superseded() {
			break
		}
		r.applyTarget(st, lg, p, t, true)
	}
	// Advance the applied generation (a superseded plan counts as applied:
	// its successor covers every entry) and wake drain waiters.
	for {
		cur := r.rebalApplied.Load()
		if cur >= p.gen || r.rebalApplied.CompareAndSwap(cur, p.gen) {
			break
		}
	}
	r.rebalMu.Lock()
	r.rebalCond.Broadcast()
	r.rebalMu.Unlock()
}

// applyTarget applies one entry's budget target. With block unset it only
// tries the entry lock, reporting false when the entry is busy; with block
// set it waits, polling so a plan superseded mid-wait aborts instead of
// pinning the worker to a stalled entry.
func (r *Registry) applyTarget(st *store.Store, lg *slog.Logger, p *rebalPlan, t rebalTarget, block bool) bool {
	e := t.e
	if e.retired.Load() {
		return true
	}
	if !e.mu.TryLock() {
		if !block {
			return false
		}
		for !e.mu.TryLock() {
			if r.rebalGen.Load() > p.gen {
				return true
			}
			time.Sleep(time.Millisecond)
		}
	}
	defer e.mu.Unlock()
	if e.retired.Load() || e.budgetGen > p.gen {
		return true
	}
	e.budgetGen = p.gen
	if t.target < 0 && e.lastBudget == 0 {
		// Lift target on an entry no fleet rebalance ever constrained: keep
		// its build-time budget. Read under e.mu, so it cannot race the
		// constraining write it exists to observe.
		return true
	}
	if t.target != e.lastBudget {
		e.lastBudget = t.target
		e.syn.SetBudget(t.target)
		if e.syn.HasHET() {
			// Admitting or evicting HET entries changes estimates; an
			// unchanged target is skipped entirely so membership churn
			// doesn't flush warm caches for nothing.
			e.invalidate()
		}
		if st != nil && !e.retired.Load() {
			if err := st.AppendBudget(e.name, t.target); err != nil {
				lg.Error("persist budget failed",
					"synopsis", e.name, "targetBytes", t.target, "gen", p.gen, "err", err)
			}
		}
	}
	return true
}

// waitRebalanced blocks until every budget plan created so far has been
// applied (or superseded by an applied successor). Tests use it to observe
// the eventually-applied budget state deterministically.
func (r *Registry) waitRebalanced() {
	target := r.rebalGen.Load()
	r.rebalMu.Lock()
	defer r.rebalMu.Unlock()
	for r.rebalApplied.Load() < target {
		r.rebalCond.Wait()
	}
}

// RebalanceStats snapshots rebalance progress (the /v1/stats "rebalance"
// payload): Gen is the newest plan, AppliedGen the newest applied one;
// Pending > 0 means targets are still in flight to some entries.
func (r *Registry) RebalanceStats() api.RebalanceStats {
	r.rebalMu.Lock()
	on := r.rebalOn
	r.rebalMu.Unlock()
	gen := r.rebalGen.Load()
	applied := r.rebalApplied.Load()
	st := api.RebalanceStats{Async: on, Gen: gen, AppliedGen: applied}
	if gen > applied {
		st.Pending = gen - applied
	}
	return st
}

// AttachStore makes subsequent mutations durable. Attach after Restore-ing
// recovered synopses so recovery itself is not re-persisted.
func (r *Registry) AttachStore(st *store.Store, lg *slog.Logger) {
	r.mu.Lock()
	r.st = st
	if lg != nil {
		r.log = lg
	}
	r.mu.Unlock()
}

// Store returns the attached store (nil when the registry is ephemeral).
func (r *Registry) Store() *store.Store {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.st
}

// Restore registers a synopsis recovered from the store without writing a
// new base snapshot. The cache-scope version resumes from the persisted
// counter — today that is belt-and-braces (the estimate cache and the scope's
// entry id are both per-process, so no pre-crash scope can be presented) and
// doubles as a durable mutation count; it becomes load-bearing if the cache
// ever moves out of process. Recovery runs before StartRebalancer, so the
// rebalance each Restore triggers applies synchronously: when the last
// synopsis is restored, every budget matches what a fresh plan over the full
// registry would assign, with no worker racing the replay.
func (r *Registry) Restore(l store.Loaded) (*Entry, error) {
	if l.Name == "" {
		return nil, fmt.Errorf("synopsis name must be non-empty")
	}
	r.mu.Lock()
	if _, ok := r.entries[l.Name]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("synopsis %q %w", seriesFor(l.Name), ErrExists)
	}
	e := r.newEntry(l.Name, l.Syn, l.Source)
	if !l.Created.IsZero() {
		e.created = l.Created
	}
	e.ver.Store(l.Ver)
	e.lastBudget = l.Budget
	if l.Budget != 0 {
		r.everBudgeted = true
	}
	r.entries[l.Name] = e
	p := r.planRebalanceLocked()
	r.mu.Unlock()
	r.dispatch(p)
	return e, nil
}

// Add registers a synopsis under name. It fails if the name is taken.
func (r *Registry) Add(name string, syn *xseed.Synopsis, source string) (*Entry, error) {
	return r.register(name, syn, source, false)
}

// register is the shared Add/Put path. It reserves the name under the
// registry lock but writes the base snapshot — a full serialize + fsync,
// which can also wait out an in-flight compaction of the same name — while
// holding only the entry's write lock (plus registerMu against other
// registrations), so estimate and feedback traffic to other synopses does
// not queue behind one synopsis's base write.
func (r *Registry) register(name string, syn *xseed.Synopsis, source string, replace bool) (*Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("synopsis name must be non-empty")
	}
	r.registerMu.Lock()
	defer r.registerMu.Unlock()

	r.mu.Lock()
	old, exists := r.entries[name]
	if exists && !replace {
		r.mu.Unlock()
		return nil, fmt.Errorf("synopsis %q %w", seriesFor(name), ErrExists)
	}
	e := r.newEntry(name, syn, source)
	st := r.st
	// Reserve the name with the entry write-locked: concurrent estimates and
	// mutations of it queue until the base snapshot is on disk, so no delta
	// can be appended to a log that does not exist yet. The replaced entry is
	// retired in the same critical section, so any mutation that captured it
	// earlier skips persistence once it runs.
	e.mu.Lock()
	if exists {
		old.retired.Store(true)
	}
	r.entries[name] = e
	r.mu.Unlock()

	if exists {
		// Drain: a mutation already inside the old entry's critical section
		// (it saw retired == false) may still be appending to the old
		// generation's log. Wait it out before SaveBase truncates the log
		// for the new generation, so its record dies with the old base
		// instead of leaking into the new one.
		old.mu.Lock()
		//lint:ignore SA2001 empty critical section is the drain
		old.mu.Unlock()
	}

	if r.registerHook != nil {
		r.registerHook(name)
	}
	var saveErr error
	if st != nil {
		if err := st.SaveBase(name, syn, source, e.created, e.lastBudget, e.ver.Load()); err != nil {
			saveErr = fmt.Errorf("persist synopsis %q: %w", name, err)
		}
	}
	e.mu.Unlock()

	r.mu.Lock()
	if saveErr != nil {
		// Unwind the reservation (Delete is excluded by registerMu, so it is
		// still ours). A failed replacement reinstates the old entry rather
		// than leaving the name serving nothing: the store still holds the
		// old generation, so live and disk reconverge. Any feedback the old
		// entry absorbed while retired skipped persistence — the same
		// "applied but not persisted" outcome its caller was already told
		// about.
		e.retired.Store(true)
		if exists {
			old.retired.Store(false)
			r.entries[name] = old
		} else {
			delete(r.entries, name)
		}
		// Replan over the unwound membership: a plan created during the
		// register window computed its shares against the doomed entry, and
		// the worker will skip that entry as retired — without a fresh plan
		// the reinstated synopsis would keep a stale budget while /stats
		// reported the rebalance settled.
		p := r.planRebalanceLocked()
		r.mu.Unlock()
		r.dispatch(p)
		return nil, saveErr
	}
	p := r.planRebalanceLocked()
	r.mu.Unlock()
	r.dispatch(p)
	return e, nil
}

// Put registers or replaces the synopsis under name. The replacement gets a
// fresh cache scope, so estimates cached against the old synopsis — even by
// requests still in flight — are unreachable afterwards.
func (r *Registry) Put(name string, syn *xseed.Synopsis, source string) (*Entry, error) {
	return r.register(name, syn, source, true)
}

func (r *Registry) newEntry(name string, syn *xseed.Synopsis, source string) *Entry {
	_, bare := store.SplitKey(name)
	e := &Entry{
		name:    name,
		bare:    bare,
		ten:     r.tenants.forKey(name),
		id:      r.ids.Add(1),
		source:  source,
		created: time.Now(),
		syn:     syn,
		acc:     &metrics.Online{},
	}
	e.stages, e.qerr = r.obs.entry(seriesFor(name))
	e.kernBytes.Store(int64(syn.KernelSizeBytes()))
	return e
}

// Get returns the entry for name.
func (r *Registry) Get(name string) (*Entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("synopsis %q %w", seriesFor(name), ErrNotFound)
	}
	return e, nil
}

// Keys returns every registered qualified key, sorted. Admin surface: the
// compact route enumerates the fleet across tenants with it.
func (r *Registry) Keys() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.entries))
	for k := range r.entries {
		out = append(out, k)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// PrimaryKeys returns the qualified keys this registry serves as primary
// (every key on an unclustered server), sorted. The cluster layer
// replicates exactly these.
func (r *Registry) PrimaryKeys() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.entries))
	for k, e := range r.entries {
		if !e.replica.Load() {
			out = append(out, k)
		}
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// AdoptReplica hosts a shipped base snapshot as a warm standby entry,
// replacing any previous generation of the name. Unlike Restore it allows
// replacement (a re-shipped base supersedes the old replica) and unlike
// Put it writes nothing to the store — the caller (store.ImportBase)
// already made the shipped generation durable.
func (r *Registry) AdoptReplica(l store.Loaded) (*Entry, error) {
	if l.Name == "" {
		return nil, fmt.Errorf("synopsis name must be non-empty")
	}
	r.registerMu.Lock()
	defer r.registerMu.Unlock()
	r.mu.Lock()
	old, exists := r.entries[l.Name]
	e := r.newEntry(l.Name, l.Syn, l.Source)
	if !l.Created.IsZero() {
		e.created = l.Created
	}
	e.ver.Store(l.Ver)
	e.lastBudget = l.Budget
	if l.Budget != 0 {
		r.everBudgeted = true
	}
	e.replica.Store(true)
	if exists {
		old.retired.Store(true)
	}
	r.entries[l.Name] = e
	p := r.planRebalanceLocked()
	r.mu.Unlock()
	if exists {
		// Drain any mutation still inside the old entry's critical section
		// (same reasoning as register's replacement path).
		old.mu.Lock()
		//lint:ignore SA2001 empty critical section is the drain
		old.mu.Unlock()
	}
	r.dispatch(p)
	return e, nil
}

// Delete removes the synopsis. Its cached estimates become unreachable
// (the scope dies with the entry's id) and age out of the LRU, and its
// persisted state is removed from the store. It takes registerMu so a
// concurrent re-Add of the same name cannot write its new generation
// between our map removal and our store removal — st.Remove would then wipe
// the new registration's persistence while it stays live.
func (r *Registry) Delete(name string) error {
	r.registerMu.Lock()
	defer r.registerMu.Unlock()
	r.mu.Lock()
	e, ok := r.entries[name]
	st := r.st
	var p *rebalPlan
	if ok {
		e.retired.Store(true)
		delete(r.entries, name)
		p = r.planRebalanceLocked()
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("synopsis %q %w", seriesFor(name), ErrNotFound)
	}
	r.obs.deleteEntry(seriesFor(name))
	r.dispatch(p)
	if st != nil {
		if err := st.Remove(name); err != nil {
			return fmt.Errorf("synopsis removed but store cleanup failed: %w", err)
		}
	}
	return nil
}

// SetAggregateBudget changes the fleet-wide budget and rebalances. With the
// background rebalancer running it returns as soon as the plan is computed;
// the per-synopsis budgets are applied eventually (watch /stats).
func (r *Registry) SetAggregateBudget(bytes int) {
	r.mu.Lock()
	r.budget = bytes
	p := r.planRebalanceLocked()
	r.mu.Unlock()
	r.dispatch(p)
}

// SetTenantBudget changes one tenant's private budget (0 = rejoin the
// fleet-wide budget) and rebalances its domain.
func (r *Registry) SetTenantBudget(t *Tenant, bytes int) {
	t.budget.Store(int64(bytes))
	r.mu.Lock()
	p := r.planRebalanceLocked()
	r.mu.Unlock()
	r.dispatch(p)
}

// Replan recomputes budget targets over the current registry shape. The
// cluster manager calls it after promotions and demotions: role flips move
// entries in and out of the budget domains without changing the map.
func (r *Registry) Replan() {
	r.mu.Lock()
	p := r.planRebalanceLocked()
	r.mu.Unlock()
	r.dispatch(p)
}

// Estimate estimates a single query against the named synopsis, consulting
// the cache first. streaming selects the single-pass bounded-memory matcher
// with fallback to the standard matcher.
func (r *Registry) Estimate(ctx context.Context, name, query string, streaming bool) (api.EstimateItem, error) {
	items, err := r.EstimateBatch(ctx, name, []string{query}, streaming)
	if err != nil {
		return api.EstimateItem{}, err
	}
	return items[0], nil
}

// minParallelMisses is the batch-miss count below which EstimateBatch stays
// on the caller's goroutine: per-estimate cost is microseconds, so tiny
// batches would pay more in goroutine handoff than they win in parallelism.
const minParallelMisses = 8

// EstimateBatch estimates queries in order against the named synopsis. The
// estimate path is lock-free after the entry lookup: the batch pins the
// synopsis's immutable estimation snapshot, resolves every query through
// the compiled-plan cache (repeat queries skip parse + compile entirely),
// answers what it can from the estimate cache, and computes the remaining
// misses against the pinned snapshot — fanning out across a bounded worker
// pool (GOMAXPROCS slots shared registry-wide) when the batch is large.
// Results are
// cached under a scope tagged with the snapshot's version, so a concurrent
// mutation retires them wholesale by publishing the next version and no
// stale value can cross into the new scope. Per-query parse errors are
// reported in the item — typed, with the parse offset in the error detail —
// not as a batch error (partial-success semantics, documented in
// xseed/api). Cancelling ctx aborts the batch between per-query estimates
// and fails the whole call with the context's error.
func (r *Registry) EstimateBatch(ctx context.Context, name string, queries []string, streaming bool) ([]api.EstimateItem, error) {
	e, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sn := e.syn.Snapshot()
	scope := e.scopeFor(sn)
	planScope := e.planScope()
	items := make([]api.EstimateItem, len(queries))
	type miss struct {
		plan    *xseed.Plan
		key     string
		indices []int // item positions sharing this normalized query
	}
	var order []*miss // misses in first-seen order
	misses := make(map[string]*miss)
	// The span accumulates each query's stage nanoseconds and flushes once
	// per query; it is pooled and nil when instrumentation is disabled, so
	// this loop allocates nothing for it and, disabled, reads no clocks.
	sp := e.stages.Span()
	defer sp.End()
	for i, raw := range queries {
		sp.Reset()
		pl, ok := r.cache.GetPlan(planScope, raw, sn)
		sp.Mark(obs.StageCacheProbe)
		if !ok {
			start := time.Now()
			q, err := xseed.ParseQuery(raw)
			if err != nil {
				sp.Mark(obs.StageParse)
				sp.Flush()
				items[i] = api.EstimateItem{Query: raw, Error: api.WrapError(err, api.CodeBadRequest)}
				continue
			}
			sp.Mark(obs.StageParse)
			pl = sn.Compile(q)
			sp.Mark(obs.StageCompile)
			r.cache.PutPlan(planScope, raw, pl, time.Since(start).Nanoseconds(), e.ten)
			sp.Mark(obs.StageCacheProbe)
		}
		// The cache key is the normalized (parsed, re-rendered) query, so
		// spelling variants of one query share an entry. Streaming-mode
		// results are keyed separately: the single-pass matcher can produce
		// slightly different values than the standard one, and a cached
		// answer must come from the matcher the caller asked for.
		norm := pl.String()
		items[i].Query = norm
		key := norm
		if streaming {
			key = "stream\x00" + norm
		}
		if m, ok := misses[key]; ok { // duplicate within the batch
			m.indices = append(m.indices, i)
			sp.Flush()
			continue
		}
		if v, ok := r.cache.Get(scope, key, e.ten); ok {
			items[i].Estimate, items[i].Streamed, items[i].Cached = v.Est, v.Streamed, true
			sp.Mark(obs.StageCacheProbe)
			sp.Flush()
			continue
		}
		sp.Mark(obs.StageCacheProbe)
		m := &miss{plan: pl, key: key, indices: []int{i}}
		misses[key] = m
		order = append(order, m)
		sp.Flush()
	}
	if len(order) == 0 {
		return items, nil
	}
	// Materialize the snapshot's EPT before timing anything: it is built
	// once per snapshot (singleflight) and shared by every query, so letting
	// the first miss pay for it inside its timed window would crown an
	// arbitrary query as the shard's most expensive entry and credit the
	// whole construction to costSavedNs on every later hit.
	sn.EPTStats()
	// Compute the misses against the pinned snapshot. Every miss writes
	// disjoint item slots, so workers need no coordination beyond the work
	// index; the cache fill is safe at any time because the scope embeds the
	// pinned snapshot's version (see scopeFor).
	run := func(m *miss) {
		start := time.Now()
		var v EstimateResult
		if streaming {
			v.Est, v.Streamed = m.plan.RunStreaming(sn)
		} else {
			v.Est = m.plan.Run(sn)
		}
		v.CostNs = time.Since(start).Nanoseconds()
		// The plan-run stage reuses the CostNs measurement the cache needs
		// anyway — the stage breakdown adds zero clock reads here, and
		// workers observe wait-free from any goroutine.
		e.stages.Observe(obs.StagePlanRun, v.CostNs)
		for _, i := range m.indices {
			items[i].Estimate, items[i].Streamed = v.Est, v.Streamed
		}
		r.cache.Put(scope, m.key, v, e.ten)
	}
	if len(order) >= minParallelMisses {
		var next atomic.Int64
		process := func() {
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				run(order[i])
			}
		}
		// Helpers are best-effort: each needs a free slot from the
		// registry-wide semaphore, so total extra workers across all
		// concurrent batches never exceed GOMAXPROCS. The request's own
		// goroutine always processes regardless, so a busy pool degrades to
		// the serial path rather than queueing.
		var wg sync.WaitGroup
		maxHelpers := min(runtime.GOMAXPROCS(0)-1, len(order)-1)
	spawn:
		for w := 0; w < maxHelpers; w++ {
			select {
			case r.estSem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-r.estSem }()
					process()
				}()
			default:
				break spawn
			}
		}
		process()
		wg.Wait()
	} else {
		for _, m := range order {
			if ctx.Err() != nil {
				break
			}
			run(m)
		}
	}
	// The read path honors cancellation between per-query estimates: a
	// caller that gave up (or a server whose client went away) stops
	// consuming CPU after in-flight queries instead of finishing the batch
	// into the void, and the whole call reports the context's error.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.estimates.Add(int64(len(order)))
	return items, nil
}

// Feedback records an executed query's actual cardinality into the named
// synopsis (self-tuning) and the entry's accuracy accumulator; the applied
// mutation publishes a successor estimation snapshot, retiring the
// synopsis's cached estimates. Parse failures are typed *api.Error values
// with the parse offset in the detail — the same api.WrapError path
// EstimateBatch reports per-query errors through, so a Registry caller (or
// the HTTP layer) sees one error shape regardless of endpoint.
func (r *Registry) Feedback(name, query string, actual float64) error {
	e, err := r.Get(name)
	if err != nil {
		return err
	}
	q, err := xseed.ParseQuery(query)
	if err != nil {
		return api.WrapError(err, api.CodeBadRequest)
	}
	if !e.syn.HasHET() {
		// Kernel-only: feedback cannot change the synopsis, so record the
		// accuracy observation against the current snapshot — lock-free,
		// like any estimate — and keep the cache warm.
		est := e.syn.Snapshot().EstimateQuery(q)
		e.acc.Add(est, actual)
		qv := qerrValue(est, actual)
		e.qerr.Observe(qv)
		e.ten.qerr.Observe(qv)
		e.feedbacks.Add(1)
		return nil
	}
	r.mu.RLock()
	st := r.st
	r.mu.RUnlock()
	op := &fbOp{q: q, actual: actual, done: make(chan struct{})}
	r.runFeedback(e, st, []*fbOp{op})
	e.acc.Add(op.est, actual)
	qv := qerrValue(op.est, actual)
	e.qerr.Observe(qv)
	e.ten.qerr.Observe(qv)
	e.feedbacks.Add(1)
	if op.err != nil {
		return op.err
	}
	return nil
}

// fbOp is one feedback observation moving through an entry's coalescing
// queue. The publisher fills est/applied/pend/err before closing done; the
// originating goroutine then waits on pend (durability) outside every lock.
type fbOp struct {
	q      *xseed.Query
	actual float64

	est     float64
	applied bool
	pend    *store.Pending // group-commit handle; nil = nothing to persist
	err     *api.Error     // persist failure, typed for the wire
	done    chan struct{}
}

// runFeedback pushes ops through e's coalescing queue and returns once
// every op is applied AND durable. ops must be non-empty; they are enqueued
// contiguously, so one drain round processes them all.
func (r *Registry) runFeedback(e *Entry, st *store.Store, ops []*fbOp) {
	e.fbMu.Lock()
	e.fbQueue = append(e.fbQueue, ops...)
	publisher := !e.fbActive
	if publisher {
		e.fbActive = true
	}
	e.fbMu.Unlock()
	if publisher {
		r.drainFeedback(e, st)
	} else {
		<-ops[len(ops)-1].done // contiguous: last done ⇒ all done
	}
	// Durability wait happens out here, after e.mu is released: blocking the
	// entry's critical section for a group-commit window would cap a hot
	// synopsis at 1/BatchLatency events per second.
	for _, op := range ops {
		if op.pend == nil {
			continue
		}
		if werr := op.pend.Wait(); werr != nil && op.err == nil {
			op.err = api.WrapError(fmt.Errorf("feedback applied but not persisted: %w", werr), api.CodeInternal)
		}
	}
}

// drainFeedback is the publisher side of the coalescing queue: under the
// entry lock it repeatedly takes the whole queue, applies every delta with
// publication deferred, enqueues each applied delta's log record inside the
// same critical section (log order = apply order — replicated standbys
// depend on it), and publishes one successor snapshot per round.
func (r *Registry) drainFeedback(e *Entry, st *store.Store) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		e.fbMu.Lock()
		batch := e.fbQueue
		e.fbQueue = nil
		if len(batch) == 0 {
			e.fbActive = false
			e.fbMu.Unlock()
			return
		}
		e.fbMu.Unlock()
		applied := 0
		for _, op := range batch {
			var delta xseed.HETDelta
			op.est, delta, op.applied = e.syn.FeedbackQueryDeltaDeferred(op.q, op.actual)
			if !op.applied {
				continue
			}
			applied++
			e.invalidate()
			if st != nil && !e.retired.Load() {
				// A retired entry (replaced or deleted while this op was in
				// flight) skips the append — the log belongs to its successor.
				if p, perr := st.AppendFeedbackEnq(e.name, delta); perr != nil {
					op.err = api.WrapError(perr, api.CodeInternal)
				} else {
					op.pend = p
				}
			}
		}
		if applied > 0 {
			e.syn.Publish()
			r.obs.fbApplied.Add(uint64(applied))
			r.obs.fbPublishes.Inc()
		}
		for _, op := range batch {
			close(op.done)
		}
	}
}

// FeedbackBatch records a batch of observations against one synopsis with
// partial-success semantics: one *api.Error slot per item in request order
// (nil = absorbed, and durable to the store's configured discipline), plus
// a whole-call error when the synopsis itself is unavailable. The batch
// coalesces into at most one snapshot publication and rides one
// group-commit flush, which is what makes bulk feedback cheap.
func (r *Registry) FeedbackBatch(name string, items []api.FeedbackItem) ([]*api.Error, error) {
	e, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	out := make([]*api.Error, len(items))
	if !e.syn.HasHET() {
		// Kernel-only: feedback cannot change the synopsis; record accuracy
		// observations lock-free against the current snapshot.
		sn := e.syn.Snapshot()
		for i, it := range items {
			q, perr := xseed.ParseQuery(it.Query)
			if perr != nil {
				out[i] = api.WrapError(perr, api.CodeBadRequest)
				continue
			}
			est := sn.EstimateQuery(q)
			e.acc.Add(est, it.Actual)
			qv := qerrValue(est, it.Actual)
			e.qerr.Observe(qv)
			e.ten.qerr.Observe(qv)
			e.feedbacks.Add(1)
		}
		return out, nil
	}
	r.mu.RLock()
	st := r.st
	r.mu.RUnlock()
	ops := make([]*fbOp, 0, len(items))
	idx := make([]int, 0, len(items))
	for i, it := range items {
		q, perr := xseed.ParseQuery(it.Query)
		if perr != nil {
			out[i] = api.WrapError(perr, api.CodeBadRequest)
			continue
		}
		ops = append(ops, &fbOp{q: q, actual: it.Actual, done: make(chan struct{})})
		idx = append(idx, i)
	}
	if len(ops) == 0 {
		return out, nil
	}
	r.runFeedback(e, st, ops)
	for j, op := range ops {
		i := idx[j]
		e.acc.Add(op.est, items[i].Actual)
		qv := qerrValue(op.est, items[i].Actual)
		e.qerr.Observe(qv)
		e.ten.qerr.Observe(qv)
		e.feedbacks.Add(1)
		out[i] = op.err
	}
	return out, nil
}

// AddSubtree incrementally maintains the named synopsis after an insertion
// and drops its cached estimates.
func (r *Registry) AddSubtree(name string, contextPath []string, xml string) error {
	return r.updateSubtree(name, contextPath, xml, true)
}

// RemoveSubtree incrementally maintains the named synopsis after a deletion
// and drops its cached estimates.
func (r *Registry) RemoveSubtree(name string, contextPath []string, xml string) error {
	return r.updateSubtree(name, contextPath, xml, false)
}

func (r *Registry) updateSubtree(name string, contextPath []string, xml string, add bool) error {
	e, err := r.Get(name)
	if err != nil {
		return err
	}
	r.mu.RLock()
	st := r.st
	r.mu.RUnlock()
	var persistErr error
	e.mu.Lock()
	if add {
		err = e.syn.AddSubtree(contextPath, xml)
	} else {
		err = e.syn.RemoveSubtree(contextPath, xml)
	}
	if err == nil {
		e.invalidate()
		e.kernBytes.Store(int64(e.syn.KernelSizeBytes()))
		if st != nil && !e.retired.Load() {
			persistErr = st.AppendSubtree(name, add, contextPath, xml)
		}
	}
	e.mu.Unlock()
	if err != nil {
		// Same typed-error path as estimate and feedback failures: XML (or
		// context-path) rejections surface as *api.Error bad_request.
		return api.WrapError(err, api.CodeBadRequest)
	}
	e.updates.Add(1)
	if persistErr != nil {
		return fmt.Errorf("subtree update applied but not persisted: %w", persistErr)
	}
	return nil
}

// Info snapshots one entry's stats as the served wire type.
func (e *Entry) Info() api.SynopsisInfo {
	e.mu.RLock()
	kern := e.syn.KernelSizeBytes()
	het := e.syn.HETSizeBytes()
	total := e.syn.SizeBytes()
	resident, all := e.syn.HETEntries()
	e.mu.RUnlock()
	acc := e.acc.Snapshot()
	return api.SynopsisInfo{
		Name:           e.bare,
		Source:         e.source,
		Created:        e.created,
		KernelBytes:    kern,
		HETBytes:       het,
		TotalBytes:     total,
		HETResident:    resident,
		HETTotal:       all,
		Estimates:      e.estimates.Load(),
		Feedbacks:      e.feedbacks.Load(),
		SubtreeUpdates: e.updates.Load(),
		Accuracy: api.AccuracyStats{
			N:          acc.N,
			RMSE:       acc.RMSE,
			NRMSE:      acc.NRMSE,
			R2:         acc.R2,
			MeanActual: acc.MeanActual,
			// Quantiles read the same online histogram /metrics exposes as
			// xseed_qerror{synopsis}, so the two views agree by construction
			// (zero with instrumentation disabled or before any feedback).
			QErrorP50: e.qerr.Quantile(0.50),
			QErrorP90: e.qerr.Quantile(0.90),
			QErrorP99: e.qerr.Quantile(0.99),
		},
	}
}

// List returns info for every synopsis the default tenant owns, sorted by
// name (the untenanted view; see ListFor).
func (r *Registry) List() []api.SynopsisInfo {
	return r.ListFor(nil)
}

// ListFor returns info for every synopsis t owns, sorted by name. A nil t
// means the default tenant.
func (r *Registry) ListFor(t *Tenant) []api.SynopsisInfo {
	r.mu.RLock()
	if t == nil {
		t = r.tenants.def
	}
	entries := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		// Replicas are invisible to clients: they serve no traffic here, and
		// hiding them keeps a cluster-wide list merge duplicate-free (each
		// synopsis appears only in its owner's listing).
		if e.ten == t && !e.replica.Load() {
			entries = append(entries, e)
		}
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].bare < entries[j].bare })
	out := make([]api.SynopsisInfo, len(entries))
	for i, e := range entries {
		out[i] = e.Info()
	}
	return out
}

// Stats snapshots the registry as the /v1/stats wire payload from the
// default tenant's perspective (the untenanted view; see StatsFor).
func (r *Registry) Stats() api.Stats {
	return r.StatsFor(nil)
}

// StatsFor snapshots the registry as the /v1/stats payload scoped to t (nil
// = default): its synopses, its effective budget, and — when tenancy is on
// and t is the admin (default) tenant — the fleet-wide per-tenant rollups.
// A non-default tenant's Cache block covers only its own lookups and
// occupancy; the default tenant sees the whole cache, byte-identical to the
// untenanted payload.
func (r *Registry) StatsFor(t *Tenant) api.Stats {
	r.mu.RLock()
	ts := r.tenants
	budget := r.budget
	st := r.st
	r.mu.RUnlock()
	if t == nil {
		t = ts.def
	}
	infos := r.ListFor(t)
	total := 0
	for _, in := range infos {
		total += in.TotalBytes
	}
	out := api.Stats{
		Synopses:        infos,
		TotalBytes:      total,
		AggregateBudget: budget,
		Rebalance:       r.RebalanceStats(),
		Cache:           r.cache.Stats(),
	}
	if tb := int(t.budget.Load()); tb > 0 {
		out.AggregateBudget = tb
	}
	if t != ts.def {
		hits, misses := t.hits.load(), t.misses.load()
		out.Cache = api.CacheStats{
			Entries: r.cache.TenantEntries(t),
			Hits:    hits,
			Misses:  misses,
		}
		if tot := hits + misses; tot > 0 {
			out.Cache.HitRate = float64(hits) / float64(tot)
		}
	}
	if st != nil {
		ss := storeStatsAPI(st.Stats(), ts, t)
		out.Store = &ss
	}
	if ts.enabled && t == ts.def {
		out.Tenants = r.tenantRollups(ts)
	}
	return out
}

// tenantRollups builds the admin's fleet-wide per-tenant summary.
func (r *Registry) tenantRollups(ts *TenantSet) []api.TenantStats {
	type agg struct {
		n     int
		bytes int
	}
	perTen := make(map[*Tenant]agg)
	r.mu.RLock()
	entries := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	for _, e := range entries {
		e.mu.RLock()
		sz := e.syn.SizeBytes()
		e.mu.RUnlock()
		a := perTen[e.ten]
		a.n++
		a.bytes += sz
		perTen[e.ten] = a
	}
	tens := ts.all()
	out := make([]api.TenantStats, 0, len(tens))
	for _, t := range tens {
		a := perTen[t]
		hits, misses := t.hits.load(), t.misses.load()
		s := api.TenantStats{
			ID:          t.id,
			Synopses:    a.n,
			TotalBytes:  a.bytes,
			BudgetBytes: int(t.budget.Load()),
			CacheQuota:  t.cacheQuota,
			CacheHits:   hits,
			CacheMisses: misses,
			RateLimited: t.rateLimited.Load(),
			QErrorP50:   t.qerr.Quantile(0.50),
			QErrorP90:   t.qerr.Quantile(0.90),
			QErrorP99:   t.qerr.Quantile(0.99),
		}
		if tot := hits + misses; tot > 0 {
			s.CacheHitRate = float64(hits) / float64(tot)
		}
		out = append(out, s)
	}
	return out
}
