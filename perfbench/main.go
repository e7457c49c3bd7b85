// Command perfbench is xseedd's benchmark. It starts the real server stack
// in process (server.New with its HTTP handler and an xtp listener on
// loopback ephemeral ports, default configuration, metrics on), drives it
// through the public SDK with a closed loop of two clients, checks every
// answer, and prints a run record, every metric by name and unit, and as
// its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload xtp-hot-point --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// spends half the run untraced (runtime and server counters) and half in
// the traced pass, and reports the per-layer metrics; the spans are written
// to <dir>/spans-<workload>.jsonl.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// deadline bounds one workload end to end, so a hang fails with a message
// instead of stalling whoever runs the benchmark.
const deadline = 150 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	seed     int64
	duration time.Duration
	trace    bool
	dir      string // temporary stores and span logs live here
	reps     int    // set-ups per run; setup_s is the fastest
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed for the document and the query stream")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced pass")
	dir := fs.String("dir", ".bench_build", "directory for temporary stores and span logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findSpec(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(clients)
	cfg := config{seed: *seed, duration: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: *dir, reps: 9}
	if cfg.trace {
		cfg.reps = 1 // the traced run reports no setup_s
	}
	// An interrupt cancels the run like the deadline does, so the stack is
	// shut down and the temporary store removed on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	// Work that ignores the context still cannot outlive the deadline.
	watchdog := time.AfterFunc(deadline+15*time.Second, func() {
		fmt.Fprintf(stderr, "perfbench: workload %s hung past its %s deadline\n", w.name, deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := runWorkload(ctx, w, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res.jsonLine()); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// metric is one reported number. note gives its sample count or the base
// of a ratio.
type metric struct {
	name, unit string
	value      float64
	note       string
}

type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric // reported in the JSON line
}

func (r *result) jsonLine() any {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	return struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms}
}

// runWorkload makes the inputs, sets up, measures, checks and tears down
// one workload, printing the run record and every metric to out.
func runWorkload(ctx context.Context, w spec, cfg config, out io.Writer) (*result, error) {
	t0 := time.Now()
	in, err := workloadInputs(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	genTime := time.Since(t0)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := tmpRootFor(cfg.dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// setup_s is the fastest of several set-ups: one that met a stall of
	// the shared host shows as a slower rep, not in the figure.
	var setups []float64
	var s *rig
	for r := 0; r < cfg.reps; r++ {
		// Each set-up starts from a collected heap, so garbage from input
		// generation or the previous set-up does not bill it a GC cycle.
		runtime.GC()
		if s, err = setupRig(ctx, w, in, tmp); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, s.setup.Seconds())
		if !w.http {
			err = s.computeExpected()
		}
		if err == nil {
			err = s.checkWarm()
		}
		if r < cfg.reps-1 || err != nil {
			err = errors.Join(err, s.close())
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
	}
	closed := false
	defer func() {
		if !closed {
			s.close()
		}
	}()

	printRecord(out, w, cfg, in, genTime)
	res := &result{}
	var rep []metric
	var u *phaseResult
	var checks []string
	if cfg.trace {
		if u, err = s.runPhase(ctx, cfg.duration/2, cfg.seed, nil); err != nil {
			return nil, err
		}
		tr := newTracer()
		t, err := s.runPhase(ctx, cfg.duration/2, cfg.seed+1, tr)
		if err != nil {
			return nil, err
		}
		rep, checks = perLayer(s, u, t, tr, cfg.seed)
		res.attempted, res.failed = u.attempted+t.attempted, u.failed+t.failed
		noteFailure(out, t)
		path := filepath.Join(cfg.dir, "spans-"+w.name+".jsonl")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %d written to %s, %d beyond the in-memory cap not logged\n", len(tr.log), path, tr.dropped)
	} else {
		if u, err = s.runPhase(ctx, cfg.duration, cfg.seed, nil); err != nil {
			return nil, err
		}
		res.attempted, res.failed = u.attempted, u.failed
	}
	noteFailure(out, u)

	e2e, extra, err := endToEnd(ctx, out, s, u, setups, cfg.seed)
	if err != nil {
		return nil, err
	}
	if s.published() {
		checks = append(checks, "the read-only workload published a new snapshot")
	}
	final, err := s.st.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if rl := final.sum("xseed_tenant_rate_limited_total"); rl != 0 {
		checks = append(checks, fmt.Sprintf("tenant rate limiter refused %v requests", rl))
	}
	// Live heap last, after dropping the benchmark's own large buffers (the
	// XML text, latency samples, warm-pass answers): what stays is the
	// serving stack (server, synopses, caches, clients) and the query pool.
	u = nil
	in.xml = nil
	s.warm = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e2e = append(e2e, metric{"live_heap_mb", "MB", float64(ms.HeapAlloc) / (1 << 20), "HeapAlloc after runtime.GC at the end of the run"})

	closed = true
	if err := s.close(); err != nil {
		checks = append(checks, "teardown: "+err.Error())
	}

	fmt.Fprintln(out, "end-to-end metrics (untraced):")
	printMetrics(out, e2e)
	printMetrics(out, extra)
	if cfg.trace {
		fmt.Fprintln(out, "per-layer metrics:")
		printMetrics(out, rep)
		res.metrics = rep
	} else {
		res.metrics = e2e
	}
	for _, m := range res.metrics {
		if !validMetricName(m.name) || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			checks = append(checks, "bad metric "+m.name)
		}
	}
	for _, c := range checks {
		fmt.Fprintln(out, "check failed:", c)
	}
	res.correct = res.failed == 0 && len(checks) == 0
	return res, nil
}

// workloadInputs makes a workload's document and query pools from the seed.
func workloadInputs(w spec, seed int64) (*inputs, error) {
	in, err := makeInputs(w.dataset, w.scale, seed, w.gens)
	if err != nil {
		return nil, err
	}
	in.pool = shuffled(in.pool, seed)
	if w.poolSize > 0 && len(in.pool) > w.poolSize {
		in.pool = in.pool[:w.poolSize]
	}
	if len(in.pool) < w.batch {
		return nil, fmt.Errorf("pool of %d queries is smaller than a batch of %d", len(in.pool), w.batch)
	}
	if w.fbPool > 0 {
		in.fback = shuffled(in.pool, seed+1)[:min(w.fbPool, len(in.pool))]
	}
	return in, nil
}

func noteFailure(out io.Writer, p *phaseResult) {
	if p != nil && p.firstErr != nil {
		fmt.Fprintf(out, "first failure (%d of %d operations failed): %v\n", p.failed, p.attempted, p.firstErr)
	}
}

// endToEnd computes the user-visible metrics of the untraced phase. The
// second list holds what is printed but not reported in the JSON line:
// feedback metrics exist only on http-feedback-mix; error_rate is 0 on a
// correct run (the JSON line carries attempted and failed instead); and the
// p99 of a batch-of-1 request lands where the host's stalls do, so it
// spreads too far between runs on a shared machine to gate anything (the
// traced run reports it with the per-layer metrics).
func endToEnd(ctx context.Context, out io.Writer, s *rig, u *phaseResult, setups []float64, seed int64) (e2e, extra []metric, err error) {
	secs := u.elapsed.Seconds()
	all := u.windows()
	quiet := quietest(all, seed)
	winSecs := secs / float64(len(all))
	var rates []float64
	for _, w := range quiet {
		rates = append(rates, float64(len(w.lats)*s.w.batch)/winSecs)
	}
	lats := pool(quiet)
	p50, n := percentile(lats, 0.5)
	p90, _ := percentile(lats, 0.90)
	p99, _ := percentile(lats, 0.99)
	over := fmt.Sprintf("over all %d windows of %.2fs", len(all), winSecs)
	if len(quiet) < len(all) {
		over = fmt.Sprintf("over the %d of %d windows of %.2fs with least host steal", len(quiet), len(all), winSecs)
		var stealAll, stealQuiet int64
		for _, w := range all {
			stealAll += w.steal
		}
		for _, w := range quiet {
			stealQuiet += w.steal
		}
		fmt.Fprintf(out, "host steal: %.1f%% of CPU time over the phase, %.1f%% in the windows used\n",
			stealPct(stealAll, secs), stealPct(stealQuiet, winSecs*float64(len(quiet))))
		// The same figures over every window, to show what the filter changed.
		lats := pool(all)
		p50, _ := percentile(lats, 0.5)
		p90, n := percentile(lats, 0.9)
		fmt.Fprintf(out, "all %d windows: %.0f estimates/s, p50 %.1fus, p90 %.1fus (n=%d requests)\n",
			len(all), float64(u.estimates)/secs, p50, p90, n)
	}
	q50, q90, nq, err := s.qerrors(ctx)
	if err != nil {
		return nil, nil, err
	}
	kb, err := s.synopsisKB()
	if err != nil {
		return nil, nil, err
	}
	e2e = []metric{
		{"setup_s", "s", slices.Min(setups), fmt.Sprintf("fastest of %d set-ups %s", len(setups), fmtList(setups))},
		{"estimates_per_s", "1/s", median(rates), fmt.Sprintf("median of per-window rates %s; %d correct estimates in %.3fs over all windows", over, u.estimates, secs)},
		{"est_p50_us", "us", p50, fmt.Sprintf("pooled %s; n=%d requests", over, n)},
		{"est_p90_us", "us", p90, fmt.Sprintf("pooled %s; n=%d requests, %d beyond", over, n, beyond(n, 0.90))},
		{"qerror_p50", "ratio", q50, fmt.Sprintf("n=%d queries", nq)},
		{"qerror_p90", "ratio", q90, fmt.Sprintf("n=%d queries", nq)},
		{"synopsis_kb", "KiB", kb, fmt.Sprintf("mean over %d served synopses, after the run", len(uniq(s.keys)))},
	}
	fb99, nfb := percentile(u.fbLatUs, 0.99)
	extra = []metric{
		{"feedback_events_per_s", "1/s", float64(u.fbEvents) / secs, fmt.Sprintf("%d acknowledged events", u.fbEvents)},
		{"feedback_p99_us", "us", fb99, fmt.Sprintf("n=%d feedback requests", nfb)},
		{"est_p99_us", "us", p99, fmt.Sprintf("pooled %s; n=%d requests, %d beyond", over, n, beyond(n, 0.99))},
		{"error_rate", "ratio", ratio(float64(u.failed), float64(u.attempted)), fmt.Sprintf("%d failed of %d operations", u.failed, u.attempted)},
	}
	return e2e, extra, nil
}

// stealPct expresses steal clock ticks (USER_HZ, 100 per second) as a
// share of the CPU time all CPUs had over secs.
func stealPct(ticks int64, secs float64) float64 {
	return float64(ticks) / (secs * 100 * float64(runtime.NumCPU())) * 100
}

// beyond is how many of n samples lie above the p-quantile.
func beyond(n int, p float64) int { return n - int(math.Ceil(p*float64(n))) }

// median returns the middle value of vs (the mean of the middle two for an
// even count) without reordering vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func fmtList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func printMetrics(out io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "  %-28s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// printRecord prints what a reader needs to compare two runs.
func printRecord(out io.Writer, w spec, cfg config, in *inputs, gen time.Duration) {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.duration.Seconds(), cfg.trace)
	fmt.Fprintf(out, "  why: %s\n", w.why)
	fmt.Fprintf(out, "  go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	transport := "xtp, one connection per client"
	switch {
	case w.http:
		transport = fmt.Sprintf("http/json, %d tenants with bearer tokens, rate limit %.0g/s", len(tenants), tenantRate)
	case w.shared:
		transport = "xtp, both clients pipelined over one shared connection"
	}
	fsync := "no store"
	if w.http {
		fsync = "store on, fsync batch (group commit)"
	}
	fmt.Fprintf(out, "  dataset=%s scale=%g xml=%d bytes, pool=%d queries, feedback pool=%d, batch=%d, closed loop of %d clients\n",
		w.dataset, w.scale, len(in.xml), len(in.pool), len(in.fback), w.batch, clients)
	fmt.Fprintf(out, "  transport=%s; cache capacity=%d; %s; loopback, sandbox disk; input generation %.2fs (not in setup_s)\n",
		transport, cacheCapacity, fsync, gen.Seconds())
}

// cpuModel reads the processor name from /proc/cpuinfo; "unknown" elsewhere.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// perLayer computes the per-layer metrics from the untraced phase u (server
// counters, runtime) and the traced phase t with its spans, and checks that
// the layers account for the request time.
func perLayer(s *rig, u, t *phaseResult, tr *tracer, seed int64) ([]metric, []string) {
	var checks []string
	b, a := u.before, u.after
	hits, misses := delta(b, a, "xseed_cache_hits_total"), delta(b, a, "xseed_cache_misses_total")
	planHits, planMisses := delta(b, a, "xseed_plan_cache_hits_total"), delta(b, a, "xseed_plan_cache_misses_total")
	queries := hits + misses
	resultHit := ratio(hits, queries)
	planMiss := ratio(planMisses, planHits+planMisses)
	stage := func(st string) float64 {
		return delta(b, a, "xseed_estimate_stage_seconds_sum", `stage="`+st+`"`) * 1e9
	}
	sampled := delta(b, a, "xseed_estimate_stage_seconds_count", `stage="cache_probe"`)

	events := float64(u.fbEvents)
	applied := delta(b, a, "xseed_feedback_applied_total")
	batches := delta(b, a, "xseed_store_batch_events_count")

	secs := u.elapsed.Seconds()
	reqs := float64(u.requests)
	allocs := float64(u.mem1.Mallocs - u.mem0.Mallocs)
	allocBytes := float64(u.mem1.TotalAlloc - u.mem0.TotalAlloc)

	self := func(op, name string) float64 { v, _ := tr.mean(op, name, true); return v }
	dur := func(op, name string) float64 { v, _ := tr.mean(op, name, false); return v }
	reqNs, nReq := tr.mean("est", "request", false)
	inner := "inproc"
	if s.w.http {
		inner = "server.http_handler"
	}
	innerNs, nInner := tr.mean("est", inner, false)
	residualNs := reqNs - innerNs
	registryNs := dur("est", "registry.estimate_batch")
	handlerNs := dur("est", "server.http_handler")
	jsonDec, jsonEnc := self("est", "api.json_decode_req"), self("est", "api.json_encode_resp")
	libParse, libCompile, libRun := self("lib", "xpath.parse"), self("lib", "estimate.compile"), self("lib", "estimate.plan_run")
	_, nLib := tr.mean("lib", "xpath.parse", true)

	// Tracing overhead compares like with like: the socket estimate request
	// with its request span on (traced phase) and off (untraced phase).
	// The other kinds skip the socket, so they have no untraced twin.
	untracedUs := mean(u.estLatUs)
	overhead := ratio(reqNs/1e3-untracedUs, untracedUs) * 100

	// The in-process kind's layers plus the residual must account for the
	// socket request: every span's self time sums back to its root, so a
	// gap here means spans overlapped or escaped their parent. The residual
	// is defined as request minus in-process, so this checks the span
	// tree's consistency, not an independent measurement.
	var layerSum float64
	for _, name := range []string{inner, "wire.encode_req", "wire.decode_req", "registry.estimate_batch",
		"wire.encode_resp", "wire.decode_resp", "api.json_decode_req", "api.json_encode_resp"} {
		if s.w.http && name != inner {
			break // the handler span has no children
		}
		layerSum += self("est", name)
	}
	if gap := math.Abs(layerSum+residualNs-reqNs) / reqNs; nReq == 0 || gap > sumTolerance {
		checks = append(checks, fmt.Sprintf("layer self times + residual = %.0fns, request span %.0fns", layerSum+residualNs, reqNs))
	}

	fb99, nfb := percentile(u.fbLatUs, 0.99)
	est99, n99 := percentile(pool(quietest(u.windows(), seed)), 0.99)
	ms := []metric{
		{"est_p99_us", "us", est99, fmt.Sprintf("untraced half, quietest windows; n=%d requests, %d beyond", n99, beyond(n99, 0.99))},
		{"wire.encode_req_ns", "ns", self("est", "wire.encode_req"), fmt.Sprintf("n=%d in-process requests", nInner)},
		{"wire.decode_req_ns", "ns", self("est", "wire.decode_req"), ""},
		{"wire.encode_resp_ns", "ns", self("est", "wire.encode_resp"), ""},
		{"wire.decode_resp_ns", "ns", self("est", "wire.decode_resp"), ""},
		{"wire.req_bytes", "bytes", tr.meanBytes("est", "wire.encode_req"), "per estimate request"},
		{"wire.resp_bytes", "bytes", tr.meanBytes("est", "wire.encode_resp"), "per estimate response"},
		{"transport.residual_us", "us", residualNs / 1e3, fmt.Sprintf("socket request %.1fus (n=%d) minus in-process %s %.1fus (n=%d)", reqNs/1e3, nReq, inner, innerNs/1e3, nInner)},
		{"registry.estimate_batch_us", "us", registryNs / 1e3, "Registry.EstimateBatch per request"},
		{"registry.result_hit_ratio", "ratio", resultHit, fmt.Sprintf("%.0f hits of %.0f result lookups", hits, queries)},
		{"registry.plan_hit_ratio", "ratio", ratio(planHits, planHits+planMisses), fmt.Sprintf("%.0f hits of %.0f plan lookups", planHits, planHits+planMisses)},
		{"registry.evictions_per_query", "ratio", ratio(delta(b, a, "xseed_cache_evictions_total"), queries), fmt.Sprintf("base %.0f queries", queries)},
		{"xpath.parse_ns", "ns", libParse * planMiss, fmt.Sprintf("library %.0fns/call x plan miss ratio %.3f (n=%d calls)", libParse, planMiss, nLib)},
		{"estimate.compile_ns", "ns", libCompile * planMiss, fmt.Sprintf("library %.0fns/call x plan miss ratio %.3f", libCompile, planMiss)},
		{"estimate.plan_run_ns", "ns", libRun * (1 - resultHit), fmt.Sprintf("library %.0fns/call x result miss ratio %.3f", libRun, 1-resultHit)},
		{"obs.stage_cache_probe_ns", "ns", ratio(stage("cache_probe"), sampled), fmt.Sprintf("per sampled query, n=%.0f", sampled)},
		{"obs.stage_parse_ns", "ns", ratio(stage("parse"), sampled), "per sampled query"},
		{"obs.stage_compile_ns", "ns", ratio(stage("compile"), sampled), "per sampled query"},
		{"obs.stage_plan_run_ns", "ns", ratio(stage("plan_run"), queries), fmt.Sprintf("per query, base %.0f", queries)},
		{"api.json_decode_req_ns", "ns", jsonDec, "per estimate request"},
		{"api.json_encode_resp_ns", "ns", jsonEnc, "per estimate response"},
		{"api.json_req_bytes", "bytes", tr.meanBytes("est", "api.json_decode_req"), "per estimate request"},
		{"server.http_handler_us", "us", handlerNs / 1e3, "Handler().ServeHTTP on a recorder, per estimate request"},
		{"server.policy_self_us", "us", nonzero(handlerNs, handlerNs-jsonDec-registryNs-jsonEnc) / 1e3, "handler minus JSON decode, registry and JSON encode"},
		{"tenant.rate_limited", "count", t.after.sum("xseed_tenant_rate_limited_total"), "refusals over the whole run"},
		{"registry.feedback_batch_us", "us", dur("fb", "registry.feedback_batch") / 1e3, fmt.Sprintf("Registry.FeedbackBatch of %d events", s.w.fbBatch)},
		{"registry.publishes_per_event", "ratio", ratio(delta(b, a, "xseed_feedback_publishes_total"), events), fmt.Sprintf("base %.0f events (%.0f applied)", events, applied)},
		{"store.fsyncs_per_event", "ratio", ratio(delta(b, a, "xseed_store_fsyncs_total"), events), fmt.Sprintf("base %.0f events", events)},
		{"store.batch_events_mean", "count", ratio(delta(b, a, "xseed_store_batch_events_sum"), batches), fmt.Sprintf("base %.0f group commits", batches)},
		{"store.batch_flush_p50_us", "us", histQuantile(b, a, "xseed_store_batch_flush_seconds", 0.5) * 1e6, fmt.Sprintf("bucket upper edge, n=%.0f", batches)},
		{"store.append_bytes_per_event", "bytes", ratio(delta(b, a, "xseed_store_append_bytes_total"), events), fmt.Sprintf("base %.0f events", events)},
		{"store.compactions", "count", delta(b, a, "xseed_store_compactions_total"), "during the untraced phase"},
		{"runtime.allocs_per_req", "count", ratio(allocs, reqs), fmt.Sprintf("whole process, base %.0f requests", reqs)},
		{"runtime.alloc_kb_per_req", "KiB", ratio(allocBytes/1024, reqs), fmt.Sprintf("whole process, base %.0f requests", reqs)},
		{"runtime.gc_per_s", "1/s", float64(u.mem1.NumGC-u.mem0.NumGC) / secs, fmt.Sprintf("%d cycles", u.mem1.NumGC-u.mem0.NumGC)},
		{"runtime.goroutines_max", "count", float64(u.goroutinesMax), "sampled every 5ms"},
		{"trace.overhead_pct", "%", overhead, fmt.Sprintf("socket estimate request: traced span %.1fus (n=%d), untraced %.1fus (n=%d)", reqNs/1e3, nReq, untracedUs, len(u.estLatUs))},
		{"feedback.events_per_s", "1/s", events / secs, fmt.Sprintf("%.0f acknowledged events", events)},
		{"feedback.p99_us", "us", fb99, fmt.Sprintf("n=%d feedback requests", nfb)},
		{"error_rate", "ratio", ratio(float64(u.failed+t.failed), float64(u.attempted+t.attempted)), fmt.Sprintf("%d failed of %d operations", u.failed+t.failed, u.attempted+t.attempted)},
	}
	return ms, checks
}

// sumTolerance is the share of the request span by which the layers' self
// times plus the residual may miss it.
const sumTolerance = 0.01

// nonzero returns v when the layer it derives from was measured at all.
func nonzero(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return v
}
