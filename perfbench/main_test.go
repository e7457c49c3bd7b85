package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got, n := percentile(vs, tc.p); got != tc.want || n != len(vs) {
			t.Errorf("percentile(%v) = %v (n=%d), want %v (n=%d)", tc.p, got, n, tc.want, len(vs))
		}
	}
	if got, n := percentile(nil, 0.5); got != 0 || n != 0 {
		t.Errorf("percentile of no samples = %v (n=%d), want 0 (n=0)", got, n)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestQError(t *testing.T) {
	for _, tc := range []struct{ est, actual, want float64 }{
		{10, 10, 1},
		{20, 10, 2},
		{10, 40, 4},
		{0, 0, 1},   // empty result, estimate below one row
		{0, 8, 8},   // floored at one row
		{0.5, 3, 3}, // fractional estimate floored too
	} {
		if got := qerror(tc.est, tc.actual); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("qerror(%v, %v) = %v, want %v", tc.est, tc.actual, got, tc.want)
		}
	}
}

func TestValidMetricName(t *testing.T) {
	for _, ok := range []string{"setup_s", "wire.encode_req_ns", "runtime.gc_per_s", "a-b", "9lives"} {
		if !validMetricName(ok) {
			t.Errorf("validMetricName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "p99/us", "é", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50}, // overlaps its sibling
		{ID: 3, Parent: 2, Start: 25, End: 35},
		{ID: 4, Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestQuietest(t *testing.T) {
	mk := func(steal func(i int) int64) []window {
		ws := make([]window, 200)
		for i := range ws {
			ws[i] = window{lats: []float64{float64(i)}, steal: steal(i)}
		}
		return ws
	}
	// No steal anywhere, or none reported: the counter tells nothing.
	for _, st := range []int64{0, -1} {
		if got := quietest(mk(func(int) int64 { return st }), 1); len(got) != 200 {
			t.Errorf("steal %d everywhere: %d windows kept, want all 200", st, len(got))
		}
	}
	// Steal in the first half only: the quarter comes from the second.
	got := quietest(mk(func(i int) int64 { return int64(max(0, 100-i)) }), 1)
	if len(got) != 50 {
		t.Fatalf("%d windows kept, want 50", len(got))
	}
	for _, w := range got {
		if w.steal != 0 {
			t.Errorf("kept a window with steal %d", w.steal)
		}
	}
	// Mostly ties at 0 with a few stolen windows: the quarter must sample
	// the whole phase, not its first windows.
	got = quietest(mk(func(i int) int64 { return int64(i % 7 / 6) }), 1)
	var late int
	for _, w := range got {
		if w.steal != 0 {
			t.Errorf("kept a window with steal %d", w.steal)
		}
		if w.lats[0] >= 100 {
			late++
		}
	}
	if late < 15 || late > 35 {
		t.Errorf("%d of %d kept windows from the second half, want about half", late, len(got))
	}
}

func TestScrapeParsing(t *testing.T) {
	text := `# HELP xseed_cache_hits_total Estimate-result cache hits.
# TYPE xseed_cache_hits_total counter
xseed_cache_hits_total 12
xseed_estimate_stage_seconds_sum{stage="parse",synopsis="a"} 0.5
xseed_estimate_stage_seconds_sum{stage="parse",synopsis="b"} 0.25
xseed_estimate_stage_seconds_sum{stage="compile",synopsis="a"} 9
h_bucket{le="1"} 1
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 3
`
	s, err := parseScrape(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sum("xseed_cache_hits_total"); got != 12 {
		t.Errorf("hits = %v", got)
	}
	if got := s.sum("xseed_estimate_stage_seconds_sum", `stage="parse"`); got != 0.75 {
		t.Errorf("parse sum = %v, want 0.75", got)
	}
	// A later scrape adds observations in a bucket the first did not print.
	later, err := parseScrape(strings.NewReader("h_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"4\"} 7\nh_bucket{le=\"+Inf\"} 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := histQuantile(s, later, "h", 0.5); got != 4 {
		t.Errorf("p50 of the 4 new observations = %v, want 4", got)
	}
	if _, err := parseScrape(strings.NewReader("novalue\n")); err == nil {
		t.Error("malformed line parsed")
	}
}

// small shrinks a workload's inputs so a smoke run takes seconds.
func small(w spec) spec {
	var gens []queryGen
	for _, g := range w.gens {
		g.n = min(g.n, 200)
		if g.class == "SP" {
			g.n = 40
		}
		gens = append(gens, g)
	}
	w.gens = gens
	w.scale = 0.01
	if w.poolSize > 0 {
		w.poolSize = 150
	}
	if w.fbPool > 0 {
		w.fbPool = 20
	}
	return w
}

// contract is the part of BENCHMARK.json (at the repository root) the
// program must agree with.
type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestContractWorkloads(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that every answer was right and that the JSON line carries exactly the
// metrics BENCHMARK.json names, with its units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs start a server")
	}
	c := loadContract(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				cfg := config{seed: 7, duration: 600 * time.Millisecond, trace: traced, dir: t.TempDir(), reps: 2}
				res, err := runWorkload(ctx, small(w), cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.correct, res.failed, res.attempted)
				}
				want := c.EndToEnd
				if traced {
					want = c.PerLayer
				}
				got := map[string]string{}
				for _, m := range res.metrics {
					if !validMetricName(m.name) || got[m.name] != "" {
						t.Errorf("metric name %q invalid or repeated", m.name)
					}
					got[m.name] = m.unit
					if !traced && m.value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, m.value)
					}
				}
				for _, m := range want {
					if got[m.Name] != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got[m.Name], m.Unit)
					}
				}
				if len(got) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(got), len(want))
				}
			})
		}
	}
}
