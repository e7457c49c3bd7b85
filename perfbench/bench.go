package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"xseed"
	"xseed/api"
	"xseed/client"
	"xseed/internal/server"
	"xseed/internal/store"
)

// spec is one workload: the document, the query mix, the transport, and
// the request shape two closed-loop clients send.
type spec struct {
	name, why string
	dataset   string
	scale     float64
	gens      []queryGen
	poolSize  int  // truncate the pool to this many queries (0 = keep all)
	http      bool // HTTP/JSON transport with two tenants; xtp otherwise
	shared    bool // xtp: both clients pipeline over one connection
	batch     int  // queries per estimate request
	zipf      bool // draw batches Zipf-skewed; otherwise cycle the pool
	fbEvery   int  // every fbEvery-th request is a feedback batch (0 = none)
	fbBatch   int  // events per feedback batch
	fbPool    int  // feedback pool size, drawn from the estimate pool
}

// clients is the closed loop's width: optimizers each wait for their
// estimate before they go on planning, so each client has one request in
// flight. Client and server share the process's GOMAXPROCS.
const clients = 2

// cacheCapacity is the server default (Config.CacheCapacity 0), named here
// so the run record and the pool sizing below can state it.
const cacheCapacity = 4096

var workloads = []spec{
	{
		name:    "xtp-hot-point",
		why:     "xtp batch-of-1 Zipf estimates over ~1k SP/BP/CP queries that fit the cache, one shared connection: transport, framing and the cache probe dominate",
		dataset: "xmark", scale: 0.05,
		gens:  []queryGen{{class: "SP", n: 0}, {class: "BP", n: 420, maxPreds: 2}, {class: "CP", n: 420, maxPreds: 2}},
		batch: 1, zipf: true, shared: true,
	},
	{
		name:    "xtp-cold-batch",
		why:     "xtp batches of 64 distinct CP queries cycling a pool of twice the cache capacity, one connection per client: parse, compile and plan-run dominate",
		dataset: "xmark", scale: 0.05,
		// Each distinct query takes two cache entries (plan and result), so
		// a pool of 2x capacity queries is 4x the cache in entries.
		gens:     []queryGen{{class: "CP", n: 2*cacheCapacity + 512, maxPreds: 2}},
		poolSize: 2 * cacheCapacity,
		batch:    64,
	},
	{
		name:    "http-feedback-mix",
		why:     "HTTP/JSON with two tenants: Zipf estimate batches of 16, every 4th request a feedback batch of 16 persisted by group commit, so writes publish while reads run",
		dataset: "dblp", scale: 0.05,
		gens: []queryGen{{class: "SP", n: 0}, {class: "BP", n: 300, maxPreds: 2}, {class: "CP", n: 300, maxPreds: 2}},
		http: true, batch: 16, zipf: true,
		fbEvery: 4, fbBatch: 16, fbPool: 256,
	},
}

func findSpec(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// tenant is one HTTP client's identity on http-feedback-mix. The rate limit
// is far above any load two clients can offer, so the token bucket runs on
// every request and never refuses.
type tenant struct{ id, token string }

var tenants = []tenant{{"optimizer-a", "bench-token-a"}, {"optimizer-b", "bench-token-b"}}

const tenantRate = 1e9

// rig is one set-up stack with its clients, ready to serve the run.
type rig struct {
	w     spec
	in    *inputs
	st    *stack
	ests  []xseed.Estimator // one per client
	xtps  []*client.XTP     // closed at teardown
	keys  []string          // registry key each client addresses
	warm  [][]float64       // warm-pass estimates per client, by pool index
	setup time.Duration

	// expected holds, per pool index, the estimate the library computes on
	// the served synopsis; nil on http-feedback-mix, where feedback moves
	// estimates while the run reads them.
	expected []float64
	snap     *xseed.Snapshot // pinned to check read-only runs publish nothing

	cursor atomic.Int64 // shared pool cursor for cycled batches
}

const synName = "bench"

// setupRig starts a stack and makes it ready to serve: parse the
// pre-rendered XML, build the synopsis, start listeners, register, connect
// the clients, and run one warm pass over the pool. That is what setup_s
// times. On http-feedback-mix the server parses and builds from the XML
// itself, because registration there is an HTTP create that persists the
// synopsis to the store.
func setupRig(ctx context.Context, w spec, in *inputs, tmpRoot string) (*rig, error) {
	s := &rig{w: w, in: in}
	start := time.Now()
	var err error
	if w.http {
		err = s.setupHTTP(ctx, tmpRoot)
	} else {
		err = s.setupXTP()
	}
	if err == nil {
		err = s.warmPass(ctx)
	}
	s.setup = time.Since(start)
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *rig) setupXTP() error {
	doc, err := xseed.ParseXML(bytes.NewReader(s.in.xml))
	if err != nil {
		return fmt.Errorf("parse xml: %w", err)
	}
	syn, err := xseed.BuildSynopsis(doc, nil)
	if err != nil {
		return fmt.Errorf("build synopsis: %w", err)
	}
	if s.st, err = startStack(server.Config{}); err != nil {
		return err
	}
	if _, err := s.st.srv.Registry().Add(synName, syn, "perfbench "+s.w.dataset); err != nil {
		return fmt.Errorf("register: %w", err)
	}
	for c := 0; c < clients; c++ {
		s.keys = append(s.keys, synName)
		if s.w.shared && c > 0 {
			s.ests = append(s.ests, s.xtps[0])
			continue
		}
		x, err := client.DialXTP(s.st.xtpAddr, client.WithXTPSynopsis(synName))
		if err != nil {
			return fmt.Errorf("dial xtp: %w", err)
		}
		s.xtps = append(s.xtps, x)
		s.ests = append(s.ests, x)
	}
	return nil
}

func (s *rig) setupHTTP(ctx context.Context, tmpRoot string) error {
	dir, err := os.MkdirTemp(tmpRoot, "store-")
	if err != nil {
		return fmt.Errorf("store dir: %w", err)
	}
	var tcfg []server.TenantConfig
	for _, t := range tenants {
		tcfg = append(tcfg, server.TenantConfig{ID: t.id, Token: t.token, RatePerSec: tenantRate, Burst: tenantRate})
	}
	s.st, err = startStack(server.Config{StoreDir: dir, StoreFsync: "batch", Tenants: tcfg})
	if err != nil {
		return err
	}
	for _, t := range tenants {
		c, err := client.New("http://"+s.st.httpAddr, client.WithToken(t.token), client.WithSynopsis(synName))
		if err != nil {
			return err
		}
		if _, err := c.Create(ctx, api.CreateRequest{Name: synName, XML: string(s.in.xml)}); err != nil {
			return fmt.Errorf("create for %s: %w", t.id, err)
		}
		s.ests = append(s.ests, c)
		s.keys = append(s.keys, store.Key(t.id, synName))
	}
	return nil
}

// warmPass estimates every pool query once per client connection, so
// lazy set-up (expanded path trees, plan and result caches, connection
// pools) is done before timing; the answers are checked after setup.
func (s *rig) warmPass(ctx context.Context) error {
	n := len(s.in.pool)
	s.warm = make([][]float64, clients)
	for c := 0; c < clients; c++ {
		s.warm[c] = make([]float64, n)
		for lo := 0; lo < n; lo += s.w.batch {
			hi := min(lo+s.w.batch, n)
			qs := make([]string, 0, hi-lo)
			for _, q := range s.in.pool[lo:hi] {
				qs = append(qs, q.text)
			}
			res, err := s.ests[c].EstimateBatch(ctx, qs)
			if err != nil {
				return fmt.Errorf("warm pass: %w", err)
			}
			if len(res) != len(qs) {
				return fmt.Errorf("warm pass: %d results for %d queries", len(res), len(qs))
			}
			for i, r := range res {
				if r.Err != nil {
					return fmt.Errorf("warm pass %q: %w", qs[i], r.Err)
				}
				s.warm[c][lo+i] = r.Estimate
			}
		}
		if s.w.shared {
			// One connection: a second pass would warm nothing new.
			s.warm = s.warm[:1]
			break
		}
	}
	return nil
}

// computeExpected runs the library's Plan.Run for every pool query on the
// served synopsis's current snapshot: the values every served estimate of a
// read-only workload must equal, bit for bit.
func (s *rig) computeExpected() error {
	e, err := s.st.srv.Registry().Get(s.keys[0])
	if err != nil {
		return err
	}
	s.snap = e.Synopsis().Snapshot()
	s.expected = make([]float64, len(s.in.pool))
	for i, q := range s.in.pool {
		pq, err := xseed.ParseQuery(q.text)
		if err != nil {
			return fmt.Errorf("parse %q: %w", q.text, err)
		}
		s.expected[i] = s.snap.Compile(pq).Run(s.snap)
	}
	return nil
}

// checkWarm checks the warm pass's answers like any served estimate's.
func (s *rig) checkWarm() error {
	idx := make([]int, len(s.in.pool))
	for i := range idx {
		idx[i] = i
	}
	for _, warm := range s.warm {
		if err := s.check(idx, warm); err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
	}
	return nil
}

func plausible(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }

// published reports whether a read-only run saw the served synopsis change.
func (s *rig) published() bool {
	if s.snap == nil {
		return false
	}
	e, err := s.st.srv.Registry().Get(s.keys[0])
	return err != nil || e.Synopsis().Snapshot().Version() != s.snap.Version()
}

// synopsisKB is the mean size of the served synopses.
func (s *rig) synopsisKB() (float64, error) {
	var total float64
	for _, k := range uniq(s.keys) {
		e, err := s.st.srv.Registry().Get(k)
		if err != nil {
			return 0, err
		}
		total += float64(e.Info().TotalBytes)
	}
	return total / 1024 / float64(len(uniq(s.keys))), nil
}

func uniq(ss []string) []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// close disconnects the clients and tears the stack down.
func (s *rig) close() error {
	var first error
	for _, x := range s.xtps {
		if err := x.Close(); err != nil && first == nil {
			first = fmt.Errorf("close xtp client: %w", err)
		}
	}
	if s.st != nil {
		if err := s.st.close(); err != nil && first == nil {
			first = err
		}
	}
	// The HTTP clients and the metrics scrape share the default transport;
	// drop its idle connections to the stack that just stopped.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return first
}

// drawer picks the pool indices of one client's next estimate batch.
type drawer struct {
	s    *rig
	zipf *rand.Zipf
	idx  []int
}

func (s *rig) newDrawer(c int, seed int64) *drawer {
	d := &drawer{s: s, idx: make([]int, s.w.batch)}
	if s.w.zipf {
		r := rand.New(rand.NewSource(seed*31 + int64(c)))
		d.zipf = rand.NewZipf(r, 1.1, 1, uint64(len(s.in.pool)-1))
	}
	return d
}

func (d *drawer) next() []int {
	if d.zipf != nil {
		for i := range d.idx {
			d.idx[i] = int(d.zipf.Uint64())
		}
		return d.idx
	}
	n := int64(len(d.s.in.pool))
	b := int64(len(d.idx))
	start := d.s.cursor.Add(b) - b
	for i := range d.idx {
		d.idx[i] = int((start + int64(i)) % n)
	}
	return d.idx
}

// fbCursor cycles one client's walk through the feedback pool; clients
// start half a pool apart.
type fbCursor struct{ pos int }

func (s *rig) nextFeedback(c int, f *fbCursor) []xseed.FeedbackObs {
	n := len(s.in.fback)
	out := make([]xseed.FeedbackObs, s.w.fbBatch)
	for i := range out {
		q := s.in.fback[(f.pos+c*n/clients)%n]
		f.pos++
		out[i] = xseed.FeedbackObs{Query: q.text, Actual: q.actual}
	}
	return out
}

// qerrors returns the p50 and p90 q-error of the served estimates against
// exact counts, with the sample size. Read-only workloads use the checked
// library values over the whole pool; http-feedback-mix probes the
// feedback pool over each client's connection after the run.
func (s *rig) qerrors(ctx context.Context) (p50, p90 float64, n int, err error) {
	var qs []float64
	if s.expected != nil {
		for i, q := range s.in.pool {
			qs = append(qs, qerror(s.expected[i], q.actual))
		}
	} else {
		for c := 0; c < clients; c++ {
			for lo := 0; lo < len(s.in.fback); lo += s.w.batch {
				hi := min(lo+s.w.batch, len(s.in.fback))
				texts := make([]string, 0, hi-lo)
				for _, q := range s.in.fback[lo:hi] {
					texts = append(texts, q.text)
				}
				res, err := s.ests[c].EstimateBatch(ctx, texts)
				if err != nil {
					return 0, 0, 0, fmt.Errorf("q-error probe: %w", err)
				}
				for i, r := range res {
					if r.Err != nil || !plausible(r.Estimate) {
						return 0, 0, 0, fmt.Errorf("q-error probe %q: %v %v", texts[i], r.Estimate, r.Err)
					}
					qs = append(qs, qerror(r.Estimate, s.in.fback[lo+i].actual))
				}
			}
		}
	}
	p50, n = percentile(qs, 0.5)
	p90, _ = percentile(qs, 0.9)
	return p50, p90, n, nil
}

func tmpRootFor(dir string) (string, error) {
	root := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
