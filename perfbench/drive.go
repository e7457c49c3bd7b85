package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xseed"
	"xseed/api"
	"xseed/internal/wire"
)

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	elapsed   time.Duration
	estLatUs  []float64 // per estimate request over the socket
	estAt     []int64   // its completion, ns after the phase started
	fbLatUs   []float64 // per feedback request over the socket
	estimates int64     // queries answered correctly
	fbEvents  int64     // feedback events acknowledged without error
	requests  int64     // requests of every kind (estimate and feedback)
	attempted int64
	failed    int64
	firstErr  error

	mem0, mem1    runtime.MemStats
	goroutinesMax int
	before, after scrape
	nWindows      int     // slices of windowLen the phase is cut into
	steal         []int64 // host steal per window (clock ticks); nil where unknown
}

// windowLen is the length of the slices a phase is cut into; the end-to-end
// rate and latency figures come from the quietest quarter of them (see
// quietest). A tenth of a second is short enough to step around the host's
// stalls and long enough to read its steal counter.
const windowLen = 100 * time.Millisecond

// clientResult is one client goroutine's share of a phase.
type clientResult struct {
	estLatUs, fbLatUs             []float64
	estAt                         []int64
	estimates, fbEvents, requests int64
	attempted, failed             int64
	firstErr                      error
}

func (c *clientResult) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// runPhase drives the closed loop for d. With tr nil every request goes
// over the socket untraced; with a tracer the requests rotate through the
// traced kinds (see trace.go).
func (s *rig) runPhase(ctx context.Context, d time.Duration, seed int64, tr *tracer) (*phaseResult, error) {
	res := &phaseResult{}
	var err error
	if res.before, err = s.st.scrape(ctx); err != nil {
		return nil, err
	}
	stopSampler := make(chan struct{})
	samplerDone := make(chan int)
	go func() {
		peak := runtime.NumGoroutine()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopSampler:
				samplerDone <- peak
				return
			case <-t.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	runtime.GC()
	runtime.ReadMemStats(&res.mem0)
	parts := make([]clientResult, clients)
	start := time.Now()
	end := start.Add(d)
	stopSteal := make(chan struct{})
	stealDone := make(chan []int64)
	res.nWindows = max(1, int(d/windowLen))
	go func() { stealDone <- sampleSteal(start, d, res.nWindows, stopSteal) }()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.clientLoop(ctx, c, seed, start, end, tr, &parts[c])
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	close(stopSteal)
	res.steal = <-stealDone
	runtime.ReadMemStats(&res.mem1)
	close(stopSampler)
	res.goroutinesMax = <-samplerDone
	if res.after, err = s.st.scrape(ctx); err != nil {
		return nil, err
	}
	for _, p := range parts {
		res.estLatUs = append(res.estLatUs, p.estLatUs...)
		res.estAt = append(res.estAt, p.estAt...)
		res.fbLatUs = append(res.fbLatUs, p.fbLatUs...)
		res.estimates += p.estimates
		res.fbEvents += p.fbEvents
		res.requests += p.requests
		res.attempted += p.attempted
		res.failed += p.failed
		if res.firstErr == nil {
			res.firstErr = p.firstErr
		}
	}
	return res, ctx.Err()
}

// clientLoop is one closed-loop client: send, wait, check, repeat.
func (s *rig) clientLoop(ctx context.Context, c int, seed int64, start, end time.Time, tr *tracer, out *clientResult) {
	dr := s.newDrawer(c, seed)
	var fb fbCursor
	out.estLatUs = make([]float64, 0, 1<<16)
	out.estAt = make([]int64, 0, 1<<16)
	var lp *layerPath
	kinds := 1
	if tr != nil {
		lp = s.newLayerPath(c, tr)
		kinds = len(lp.kinds())
	}
	for k := 0; time.Now().Before(end) && ctx.Err() == nil; k++ {
		feedback := s.w.fbEvery > 0 && k%s.w.fbEvery == s.w.fbEvery-1
		// Rotate the kind per block of fbEvery requests, so every kind
		// carries estimates and feedback in the workload's proportion.
		kind := "request"
		if tr != nil {
			kind = lp.kinds()[(k/max(s.w.fbEvery, 1))%kinds]
		}
		out.attempted++
		out.requests++
		if feedback {
			items := s.nextFeedback(c, &fb)
			t0 := time.Now()
			err := s.feedbackOnce(ctx, c, kind, lp, items)
			lat := time.Since(t0)
			if err != nil {
				out.fail(err)
				continue
			}
			if kind == "request" {
				out.fbLatUs = append(out.fbLatUs, float64(lat.Nanoseconds())/1e3)
			}
			out.fbEvents += int64(len(items))
			continue
		}
		idx := dr.next()
		t0 := time.Now()
		vals, err := s.estimateOnce(ctx, c, kind, lp, idx)
		t1 := time.Now()
		if err == nil {
			err = s.check(idx, vals)
		}
		if err != nil {
			out.fail(err)
			continue
		}
		if kind == "request" {
			out.estLatUs = append(out.estLatUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
			out.estAt = append(out.estAt, t1.Sub(start).Nanoseconds())
		}
		out.estimates += int64(len(idx))
	}
}

// window is one slice of a phase: the socket estimate requests that
// completed in it and the host steal it saw.
type window struct {
	lats  []float64 // latencies (us) of estimate requests completed in it
	steal int64     // host steal in the window, clock ticks (-1: unknown)
}

// windows splits the phase's socket estimate requests into its equal
// slices by completion time.
func (p *phaseResult) windows() []window {
	n := p.nWindows
	out := make([]window, n)
	span := p.elapsed.Nanoseconds()
	for i, at := range p.estAt {
		w := min(int(at*int64(n)/span), n-1)
		out[w].lats = append(out[w].lats, p.estLatUs[i])
	}
	for w := range out {
		out[w].steal = -1
		if len(p.steal) == n {
			out[w].steal = p.steal[w]
		}
	}
	return out
}

// quietest returns the quarter of the windows in which the host took the
// least CPU time away from this machine (the steal column of /proc/stat).
// On a shared virtual machine another tenant's load can stall both CPUs for
// milliseconds at a time; a microsecond-scale request that meets such a
// stall lands in the tail, so the tail would measure the neighbours rather
// than the program. Steal is counted in whole clock ticks, so many windows
// tie; ties are taken in an order shuffled by seed, so the quarter samples
// the whole phase rather than its start. Where steal is not reported, or
// every window saw the same steal, the counter says nothing and every
// window counts.
func quietest(ws []window, seed int64) []window {
	same := true
	for _, w := range ws {
		same = same && w.steal == ws[0].steal
	}
	if len(ws) == 0 || ws[0].steal < 0 || same {
		return ws
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(ws))
	sort.SliceStable(idx, func(a, b int) bool { return ws[idx[a]].steal < ws[idx[b]].steal })
	out := make([]window, (len(idx)+3)/4)
	for i := range out {
		out[i] = ws[idx[i]]
	}
	return out
}

// pool concatenates the windows' latencies.
func pool(ws []window) []float64 {
	var lats []float64
	for _, w := range ws {
		lats = append(lats, w.lats...)
	}
	return lats
}

// sampleSteal reads the host steal counter at each of n window boundaries
// of the phase starting at start and lasting d, returning per-window
// deltas; nil where the counter is unavailable or the phase stopped before
// its end. stop closes when the clients are done.
func sampleSteal(start time.Time, d time.Duration, n int, stop <-chan struct{}) []int64 {
	prev, ok := hostSteal()
	if !ok {
		return nil
	}
	out := make([]int64, 0, n)
	for w := 1; w <= n; w++ {
		boundary := start.Add(d * time.Duration(w) / time.Duration(n))
		t := time.NewTimer(time.Until(boundary))
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
			if time.Now().Before(boundary) {
				return nil // the phase ended early
			}
		}
		cur, ok := hostSteal()
		if !ok {
			return nil
		}
		out = append(out, cur-prev)
		prev = cur
	}
	return out
}

// hostSteal returns the machine's cumulative steal time in clock ticks: the
// time its virtual CPUs were ready to run while the hypervisor ran
// something else.
func hostSteal() (int64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	return v, err == nil
}

// check compares served estimates with the library's values (read-only
// workloads, bit for bit) or with what any estimate must be (feedback
// workload: finite and non-negative).
func (s *rig) check(idx []int, vals []float64) error {
	if len(vals) != len(idx) {
		return fmt.Errorf("%d estimates for %d queries", len(vals), len(idx))
	}
	for i, v := range vals {
		q := s.in.pool[idx[i]]
		if s.expected != nil {
			if want := s.expected[idx[i]]; math.Float64bits(v) != math.Float64bits(want) {
				return fmt.Errorf("%q: served %v, library %v", q.text, v, want)
			}
		} else if !plausible(v) {
			return fmt.Errorf("%q: served %v", q.text, v)
		}
	}
	return nil
}

func (s *rig) texts(idx []int) []string {
	qs := make([]string, len(idx))
	for i, j := range idx {
		qs[i] = s.in.pool[j].text
	}
	return qs
}

// estimateOnce sends one estimate batch by the given kind and returns the
// estimates in request order.
func (s *rig) estimateOnce(ctx context.Context, c int, kind string, lp *layerPath, idx []int) ([]float64, error) {
	qs := s.texts(idx)
	if kind != "request" {
		return lp.estimate(ctx, kind, qs)
	}
	var res []xseed.Result
	var err error
	lp.request("est", func() { res, err = s.ests[c].EstimateBatch(ctx, qs) })
	if err != nil {
		return nil, err
	}
	vals := make([]float64, len(res))
	for i, r := range res {
		if r.Err != nil {
			return nil, fmt.Errorf("%q: %w", qs[i], r.Err)
		}
		vals[i] = r.Estimate
	}
	return vals, nil
}

// feedbackOnce sends one feedback batch by the given kind; any item error
// fails the operation.
func (s *rig) feedbackOnce(ctx context.Context, c int, kind string, lp *layerPath, items []xseed.FeedbackObs) error {
	if kind != "request" {
		return lp.feedback(ctx, kind, items)
	}
	var errs []error
	var err error
	lp.request("fb", func() { errs, err = s.ests[c].FeedbackBatch(ctx, items) })
	if err != nil {
		return err
	}
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("feedback %q: %w", items[i].Query, e)
		}
	}
	return nil
}

// layerPath carries one client's traced requests through the layers'
// public functions in process. A nil layerPath is an untraced client.
type layerPath struct {
	s      *rig
	tr     *tracer
	key    string
	token  string
	reqBuf []byte
	rspBuf []byte
}

func (s *rig) newLayerPath(c int, tr *tracer) *layerPath {
	lp := &layerPath{s: s, tr: tr, key: s.keys[c]}
	if s.w.http {
		lp.token = tenants[c].token
	}
	return lp
}

// request runs call, the SDK round trip over the socket, as a traced
// "request" span, or just runs it on an untraced client.
func (lp *layerPath) request(op string, call func()) {
	if lp == nil {
		call()
		return
	}
	rt := lp.tr.begin(op)
	root := rt.start("request", -1)
	call()
	rt.end(root)
	rt.finish()
}

func (lp *layerPath) kinds() []string {
	if lp.s.w.http {
		return []string{"request", "handler", "inproc"}
	}
	return []string{"request", "inproc"}
}

// estimate runs one in-process estimate request of the given kind, then
// the library pass over its queries.
func (lp *layerPath) estimate(ctx context.Context, kind string, qs []string) ([]float64, error) {
	var items []api.EstimateItem
	var err error
	switch {
	case kind == "handler":
		items, err = lp.handlerEstimate(qs)
	case lp.s.w.http:
		items, err = lp.jsonEstimate(ctx, qs)
	default:
		items, err = lp.wireEstimate(ctx, qs)
	}
	if err != nil {
		return nil, err
	}
	vals := make([]float64, len(items))
	for i, it := range items {
		if it.Error != nil {
			return nil, fmt.Errorf("%q: %w", qs[i], it.Error)
		}
		vals[i] = it.Estimate
	}
	if err := lp.library(qs, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// wireEstimate is the xtp request path without the socket: the client's
// encode, the server's decode, the registry, the server's encode, the
// client's decode.
func (lp *layerPath) wireEstimate(ctx context.Context, qs []string) ([]api.EstimateItem, error) {
	rt := lp.tr.begin("est")
	defer rt.finish()
	root := rt.start("inproc", -1)
	defer rt.end(root)

	id := rt.start("wire.encode_req", root)
	lp.reqBuf = wire.AppendEstimateReq(lp.reqBuf[:0], synName, qs, false)
	rt.end(id)
	rt.addBytes(id, len(lp.reqBuf))

	id = rt.start("wire.decode_req", root)
	_, dqs, streaming, err := wire.DecodeEstimateReq(lp.reqBuf)
	rt.end(id)
	if err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}

	id = rt.start("registry.estimate_batch", root)
	items, err := lp.s.st.srv.Registry().EstimateBatch(ctx, lp.key, dqs, streaming)
	rt.end(id)
	if err != nil {
		return nil, err
	}

	id = rt.start("wire.encode_resp", root)
	lp.rspBuf = wire.AppendEstimateResp(lp.rspBuf[:0], items)
	rt.end(id)
	rt.addBytes(id, len(lp.rspBuf))

	id = rt.start("wire.decode_resp", root)
	out, err := wire.DecodeEstimateResp(lp.rspBuf)
	rt.end(id)
	if err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return out, nil
}

// jsonEstimate is the HTTP request path's work below the handler: decode
// the JSON body, ask the registry, encode the JSON response.
func (lp *layerPath) jsonEstimate(ctx context.Context, qs []string) ([]api.EstimateItem, error) {
	body, err := json.Marshal(api.EstimateRequest{Queries: qs})
	if err != nil {
		return nil, err
	}
	rt := lp.tr.begin("est")
	defer rt.finish()
	root := rt.start("inproc", -1)
	defer rt.end(root)

	id := rt.start("api.json_decode_req", root)
	var req api.EstimateRequest
	err = decodeStrict(body, &req)
	rt.end(id)
	rt.addBytes(id, len(body))
	if err != nil {
		return nil, err
	}

	id = rt.start("registry.estimate_batch", root)
	items, err := lp.s.st.srv.Registry().EstimateBatch(ctx, lp.key, req.Queries, req.Streaming)
	rt.end(id)
	if err != nil {
		return nil, err
	}

	id = rt.start("api.json_encode_resp", root)
	lp.rspBuf, err = encodeJSON(lp.rspBuf[:0], api.EstimateResponse{Results: items})
	rt.end(id)
	rt.addBytes(id, len(lp.rspBuf))
	return items, err
}

// handlerEstimate sends the request through the server's Handler on a
// recorder: routing, tenant resolution, rate limit, JSON and registry,
// without the socket.
func (lp *layerPath) handlerEstimate(qs []string) ([]api.EstimateItem, error) {
	body, err := json.Marshal(api.EstimateRequest{Queries: qs})
	if err != nil {
		return nil, err
	}
	var resp api.EstimateResponse
	if err := lp.serve("est", "/v1/synopses/"+synName+"/estimate", body, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

func (lp *layerPath) serve(op, path string, body []byte, out any) error {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+lp.token)
	rec := httptest.NewRecorder()
	rt := lp.tr.begin(op)
	id := rt.start("server.http_handler", -1)
	lp.s.st.handler.ServeHTTP(rec, req)
	rt.end(id)
	rt.finish()
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler: status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// feedback runs one in-process feedback batch of the given kind.
func (lp *layerPath) feedback(ctx context.Context, kind string, obs []xseed.FeedbackObs) error {
	items := make([]api.FeedbackItem, len(obs))
	for i, o := range obs {
		items[i] = api.FeedbackItem{Query: o.Query, Actual: o.Actual}
	}
	body, err := json.Marshal(api.FeedbackBatchRequest{Items: items})
	if err != nil {
		return err
	}
	var results []api.FeedbackBatchItem
	if kind == "handler" {
		var resp api.FeedbackBatchResponse
		if err := lp.serve("fb", "/v1/synopses/"+synName+"/feedback:batch", body, &resp); err != nil {
			return err
		}
		results = resp.Results
	} else {
		rt := lp.tr.begin("fb")
		root := rt.start("inproc", -1)
		id := rt.start("api.json_decode_req", root)
		var req api.FeedbackBatchRequest
		err = decodeStrict(body, &req)
		rt.end(id)
		var errs []*api.Error
		if err == nil {
			id = rt.start("registry.feedback_batch", root)
			errs, err = lp.s.st.srv.Registry().FeedbackBatch(lp.key, req.Items)
			rt.end(id)
		}
		if err == nil {
			resp := api.FeedbackBatchResponse{Results: make([]api.FeedbackBatchItem, len(errs))}
			for i, e := range errs {
				resp.Results[i].Error = e
			}
			id = rt.start("api.json_encode_resp", root)
			lp.rspBuf, err = encodeJSON(lp.rspBuf[:0], resp)
			rt.end(id)
			results = resp.Results
		}
		rt.end(root)
		rt.finish()
		if err != nil {
			return err
		}
	}
	if len(results) != len(items) {
		return fmt.Errorf("%d feedback results for %d items", len(results), len(items))
	}
	for i, r := range results {
		if r.Error != nil {
			return fmt.Errorf("feedback %q: %w", items[i].Query, r.Error)
		}
	}
	return nil
}

// library times the library calls a served miss makes, per query, on the
// served synopsis's current snapshot. On read-only workloads the results
// must equal what the request served.
func (lp *layerPath) library(qs []string, served []float64) error {
	e, err := lp.s.st.srv.Registry().Get(lp.key)
	if err != nil {
		return err
	}
	sn := e.Synopsis().Snapshot()
	rt := lp.tr.begin("lib")
	defer rt.finish()
	root := rt.start("library", -1)
	defer rt.end(root)
	for i, text := range qs {
		id := rt.start("xpath.parse", root)
		q, err := xseed.ParseQuery(text)
		rt.end(id)
		if err != nil {
			return err
		}
		id = rt.start("estimate.compile", root)
		p := sn.Compile(q)
		rt.end(id)
		id = rt.start("estimate.plan_run", root)
		v := p.Run(sn)
		rt.end(id)
		if lp.s.expected != nil && math.Float64bits(v) != math.Float64bits(served[i]) {
			return fmt.Errorf("%q: library %v, served %v", text, v, served[i])
		}
	}
	return nil
}

// decodeStrict decodes a request body the way the server's handlers do.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(io.LimitReader(bytes.NewReader(body), 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// encodeJSON encodes a response the way the server's handlers do.
func encodeJSON(dst []byte, v any) ([]byte, error) {
	b := bytes.NewBuffer(dst)
	err := json.NewEncoder(b).Encode(v)
	return b.Bytes(), err
}
