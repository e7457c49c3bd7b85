package estimate

import (
	"math"
	"math/rand"
	"testing"

	"xseed/internal/datagen"
	"xseed/internal/kernel"
	"xseed/internal/nok"
	"xseed/internal/pathtree"
	"xseed/internal/workload"
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

// wideQueries visit most of an XMark EPT per step: the descendant-axis and
// wildcard shapes that grow a runner's buffers and dedup index the most.
var wideQueries = []string{"//*", "//*//*", "/site//*", "//*/*", "//*//text", "//*[*]//*"}

type runCase struct {
	name string
	sn   *Snapshot
	p    *Plan
}

// xmarkPlanCases builds an XMark kernel and two snapshots of it whose EPTs
// differ in size (the whole EPT, and one truncated by a node cap), and
// compiles the wide queries plus generated complex-path and branching
// workloads against both.
func xmarkPlanCases(t testing.TB) (wide, narrow []runCase) {
	t.Helper()
	src, err := datagen.New(datagen.NameXMark, 0.002, 5)
	if err != nil {
		t.Fatal(err)
	}
	dict := xmldoc.NewDict()
	kb := kernel.NewBuilder(dict)
	pb := pathtree.NewBuilder(dict)
	doc, err := xmldoc.Build(src, dict, kb, pb)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kb.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	full := NewSnapshot(k, dict, Options{})
	capped := NewSnapshot(k, dict, Options{MaxEPTNodes: 90})
	if nf, nc := full.Stats().Nodes, capped.Stats().Nodes; nf <= nc || nc < 90 {
		t.Fatalf("EPT sizes %d (full) and %d (capped at 90) do not differ", nf, nc)
	}
	ev := nok.New(doc)
	opt := workload.Options{N: 60, Seed: 11, RequireNonEmpty: true}
	var narrowQ []*xpath.Path
	for _, q := range workload.Complex(pb.Tree(), ev, opt) {
		narrowQ = append(narrowQ, q.Path)
	}
	for _, q := range workload.Branching(pb.Tree(), ev, opt) {
		narrowQ = append(narrowQ, q.Path)
	}
	for _, sn := range []*Snapshot{full, capped} {
		for _, qs := range wideQueries {
			wide = append(wide, runCase{qs, sn, Compile(xpath.MustParse(qs), dict)})
		}
		for _, q := range narrowQ {
			narrow = append(narrow, runCase{q.String(), sn, Compile(q, dict)})
		}
	}
	return wide, narrow
}

// runOn evaluates c on r, the way Plan.Run does on a pooled runner.
func (c runCase) runOn(r *runner) float64 {
	root, stats := c.sn.EPT()
	return r.run(c.p, root, stats.Nodes, c.sn.opt.HET, c.sn.hashes)
}

// TestReusedRunnerMatchesFreshRunner drives one runner through a shuffled
// stream of wide and narrow queries over two snapshots of different EPT
// sizes: whatever the runner served before, every estimate must equal a
// fresh runner's bit for bit.
func TestReusedRunnerMatchesFreshRunner(t *testing.T) {
	wide, narrow := xmarkPlanCases(t)
	cases := append(append([]runCase{}, wide...), narrow...)
	want := make([]float64, len(cases))
	for i, c := range cases {
		want[i] = c.runOn(new(runner))
	}
	rng := rand.New(rand.NewSource(3))
	r := new(runner)
	for round := 0; round < 3; round++ {
		for _, i := range rng.Perm(len(cases)) {
			c := cases[i]
			if got := c.runOn(r); math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: %s (EPT %d nodes) = %v on a reused runner, %v on a fresh one",
					round, c.name, c.sn.Stats().Nodes, got, want[i])
			}
			if got := c.p.Run(c.sn); math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: %s = %v via Plan.Run, %v on a fresh runner", round, c.name, got, want[i])
			}
		}
	}
}

// TestRunnerEpochWrap stamps every dedup slot with a low epoch by running
// the wide queries, then jumps the epoch to just short of wrapping and runs
// the narrow queries: after the wrap the low epochs come round again while
// the wide pass's stamps are still in place, and all of them must read as
// stale.
func TestRunnerEpochWrap(t *testing.T) {
	wide, narrow := xmarkPlanCases(t)
	r := new(runner)
	for _, c := range wide {
		c.runOn(r)
	}
	r.epoch = math.MaxUint32 - 1
	for _, c := range narrow {
		want := c.runOn(new(runner))
		if got := c.runOn(r); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s = %v after the epoch wrap, want %v", c.name, got, want)
		}
	}
	if r.epoch >= math.MaxUint32-1 {
		t.Fatal("epoch never wrapped")
	}
}

// TestPlanRunSteadyStateAllocs pins the Plan documentation's claim: a warm
// Plan.Run allocates nothing, for wide and narrow queries alike.
func TestPlanRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled runners at random under the race detector")
	}
	wide, narrow := xmarkPlanCases(t)
	for _, c := range []runCase{wide[0], narrow[0], narrow[len(narrow)-1]} {
		c.p.Run(c.sn)
		if n := testing.AllocsPerRun(100, func() { c.p.Run(c.sn) }); n != 0 {
			t.Errorf("%s: %v allocations per warm Plan.Run, want 0", c.name, n)
		}
	}
}

// BenchmarkPlanRunAfterWide times a narrow complex-path query on a runner
// pool that has already served the widest query, the mix a served workload
// produces: a step must cost only the nodes it touches, not the size of the
// widest step the pooled runner ever ran.
func BenchmarkPlanRunAfterWide(b *testing.B) {
	wide, narrow := xmarkPlanCases(b)
	w, n := wide[0], narrow[0]
	w.p.Run(w.sn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planRunSink = n.p.Run(n.sn)
	}
}

var planRunSink float64
