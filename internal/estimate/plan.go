package estimate

import (
	"sync"

	"xseed/internal/pathhash"
	"xseed/internal/xmldoc"
	"xseed/internal/xpath"
)

// Plan is a query compiled against a label dictionary: every node test is
// resolved to its dense label ID, every HET branching-pattern key is reduced
// to precomputed canonical suffix bytes, and every predicate's shape is
// classified — once, at compile time. Running the plan against an estimation
// snapshot then touches only the immutable EPT and the HET lookup view:
// no dictionary lookups, no string hashing, no re-deriving predicate shapes
// per evaluation (the whole-query-compilation idea of Maneth & Nguyen
// applied to estimation).
//
// A Plan is immutable and safe for concurrent Run calls; per-run scratch
// state is pooled, so steady-state execution does not allocate. The plan
// evaluates the exact arithmetic of the interpretive matcher it replaced, in
// the same order — estimates are bit-identical.
type Plan struct {
	steps   []planStep
	dictLen int // labels interned when compiled; see CompatibleWith
}

// planStep is one compiled main-path location step.
type planStep struct {
	axis     xpath.Axis
	wildcard bool
	known    bool // node test resolves in the dictionary (always true for wildcards)
	label    xmldoc.LabelID
	preds    []planPred

	// HET pattern acceleration, valid only when the following main-path step
	// is a non-wildcard name test. wholeSuffix is the canonical
	// "[p1]..[pk]/next" bytes when every predicate is a single child-axis
	// name step (the whole-set correlated lookup); predSuffix[i] is the
	// per-predicate "[pi]/next" bytes used by the individual fallback when
	// the step carries several predicates and predicate i is simple.
	wholeSuffix []byte
	predSuffix  [][]byte
}

// planPred is one compiled predicate (a relative path).
type planPred struct {
	steps []planPredStep
}

// planPredStep is one compiled step of a predicate path, with its own nested
// predicates.
type planPredStep struct {
	axis     xpath.Axis
	wildcard bool
	known    bool
	label    xmldoc.LabelID
	preds    []planPred
}

// Compile compiles q against dict. Labels the dictionary has never seen
// compile to unmatchable steps (a query over them estimates 0), exactly as
// the interpretive matcher resolved them; CompatibleWith reports when a
// later snapshot has interned labels this plan compiled as unknown.
func Compile(q *xpath.Path, dict *xmldoc.Dict) *Plan {
	p := &Plan{dictLen: dict.Len(), steps: make([]planStep, len(q.Steps))}
	for i := range q.Steps {
		st := &q.Steps[i]
		ps := planStep{axis: st.Axis, wildcard: st.Wildcard}
		ps.label, ps.known = resolveLabel(st.Wildcard, st.Label, dict)
		for _, pr := range st.Preds {
			ps.preds = append(ps.preds, compilePred(pr, dict))
		}
		var nextLabel string
		if i+1 < len(q.Steps) && !q.Steps[i+1].Wildcard {
			nextLabel = q.Steps[i+1].Label
		}
		if nextLabel != "" && len(st.Preds) > 0 {
			if labels, ok := simplePredLabels(st.Preds); ok {
				ps.wholeSuffix = pathhash.PatternSuffix(labels, nextLabel)
			}
			if len(st.Preds) > 1 {
				ps.predSuffix = make([][]byte, len(st.Preds))
				for j, pr := range st.Preds {
					if labels, ok := simplePredLabels([]*xpath.Path{pr}); ok {
						ps.predSuffix[j] = pathhash.PatternSuffix(labels, nextLabel)
					}
				}
			}
		}
		p.steps[i] = ps
	}
	return p
}

func compilePred(pr *xpath.Path, dict *xmldoc.Dict) planPred {
	out := planPred{steps: make([]planPredStep, len(pr.Steps))}
	for i := range pr.Steps {
		st := &pr.Steps[i]
		ps := planPredStep{axis: st.Axis, wildcard: st.Wildcard}
		ps.label, ps.known = resolveLabel(st.Wildcard, st.Label, dict)
		for _, nested := range st.Preds {
			ps.preds = append(ps.preds, compilePred(nested, dict))
		}
		out.steps[i] = ps
	}
	return out
}

// resolveLabel mirrors the interpretive matcher's resolve: wildcards match
// anything (label -1), unknown labels are unmatchable.
func resolveLabel(wildcard bool, label string, dict *xmldoc.Dict) (xmldoc.LabelID, bool) {
	if wildcard {
		return -1, true
	}
	return dict.Lookup(label)
}

// CompatibleWith reports whether the plan's compiled label resolution is
// still authoritative for sn: true when the snapshot's dictionary has not
// interned any label since the plan was compiled (interning is append-only,
// so existing IDs never change — only a grown dictionary can turn one of the
// plan's unknown labels into a known one).
func (p *Plan) CompatibleWith(sn *Snapshot) bool { return p.dictLen == sn.dict.Len() }

// NumSteps returns the number of compiled main-path steps.
func (p *Plan) NumSteps() int { return len(p.steps) }

// Run evaluates the plan against the snapshot and returns the estimated
// cardinality. The caller is responsible for compatibility (CompatibleWith);
// running an incompatible plan is safe but may estimate 0 for labels the
// plan compiled before they were interned.
func (p *Plan) Run(sn *Snapshot) float64 {
	root, stats := sn.EPT()
	return p.run(root, stats.Nodes, sn.opt.HET, sn.hashes)
}

// entry is one weighted context node during navigation.
type entry struct {
	n *EPTNode
	w float64
}

// runner is the pooled per-run scratch state: the context/result buffers and
// the node-dedup index reused across steps and across runs.
type runner struct {
	het    HET
	hashes []uint32

	cur, next []entry
	hi        int // longest prefix of either buffer this run has written

	// slots is the node-dedup index, one slot per EPT node ID: a node is in
	// the current step's output iff its slot carries the current epoch, and
	// pos is then its position in the output. Bumping epoch empties the set
	// in O(1), so a step costs only the nodes it touches, however wide a
	// step the runner served before. The slots are sized from the built EPT
	// (never from Options.MaxEPTNodes) and grow only when a larger EPT
	// arrives; they hold no pointers, so a parked runner pins no EPT.
	slots []slot
	epoch uint32

	virtual   EPTNode
	rootChild [1]*EPTNode
}

// slot is one node's dedup-index entry (see runner.slots).
type slot struct {
	epoch uint32
	pos   int32
}

var runnerPool = sync.Pool{New: func() any { return new(runner) }}

// run evaluates the plan over the EPT rooted at root, whose node IDs are
// [0, nodes), on a pooled runner.
func (p *Plan) run(root *EPTNode, nodes int, het HET, hashes []uint32) float64 {
	if root == nil || len(p.steps) == 0 {
		return 0
	}
	r := runnerPool.Get().(*runner)
	est := r.run(p, root, nodes, het, hashes)
	runnerPool.Put(r)
	return est
}

// run evaluates the compiled query — the Algorithm 3 semantics of the
// interpretive matcher, operation for operation: Σ over result matches of
// card × accumulated absel, with node-set max-weight merging per step.
func (r *runner) run(p *Plan, root *EPTNode, nodes int, het HET, hashes []uint32) float64 {
	r.het, r.hashes = het, hashes
	if len(r.slots) < nodes {
		r.slots = make([]slot, nodes)
	}
	// Navigation starts at a virtual node above the EPT root whose only
	// child is the root. Its ID (0, the root's) is never looked up: steps
	// add only children to the dedup index, and it is no node's child.
	r.rootChild[0] = root
	r.virtual = EPTNode{Children: r.rootChild[:], Card: 1, Fsel: 1, Bsel: 1}
	ctx := append(r.cur[:0], entry{n: &r.virtual, w: 1})
	r.hi = 1
	for i := range p.steps {
		ctx = r.step(ctx, &p.steps[i])
		if len(ctx) == 0 {
			break
		}
		// The buffers swap roles each step: the step's output becomes the
		// next step's context and the old context is recycled as output.
		r.cur, r.next = r.next, r.cur
	}
	var est float64
	for _, e := range ctx {
		est += e.n.Card * e.w
	}
	// Scrub every EPT reference before pooling: a runner parked with stale
	// node pointers in the truncated buffers' backing arrays would pin a
	// retired snapshot's whole EPT while idle. Earlier runs left everything
	// past their own prefix zero, so this run's prefix is all there is.
	clear(r.cur[:min(r.hi, cap(r.cur))])
	clear(r.next[:min(r.hi, cap(r.next))])
	r.cur, r.next = r.cur[:0], r.next[:0]
	r.het, r.hashes, r.rootChild[0], r.virtual = nil, nil, nil, EPTNode{}
	return est
}

// step applies one location step to the weighted context set. Node-set
// semantics: each EPT node appears at most once in the result; when it is
// reachable from several context entries (possible with the descendant
// axis), the maximum weight is kept.
func (r *runner) step(ctx []entry, st *planStep) []entry {
	if !st.known {
		return nil
	}
	out := r.next[:0]
	r.epoch++
	if r.epoch == 0 {
		// Wrapped: stamps left 2^32 steps ago would read as current.
		clear(r.slots)
		r.epoch = 1
	}
	epoch := r.epoch
	add := func(n *EPTNode, w float64) {
		s := &r.slots[n.ID]
		if s.epoch == epoch {
			if w > out[s.pos].w {
				out[s.pos].w = w
			}
			return
		}
		*s = slot{epoch: epoch, pos: int32(len(out))}
		out = append(out, entry{n, w})
	}
	matches := func(c *EPTNode) bool { return st.wildcard || c.Label == st.label }
	var visitDesc func(n *EPTNode, w float64)
	visitDesc = func(n *EPTNode, w float64) {
		for _, c := range n.Children {
			if matches(c) {
				if wp := r.predWeight(c, st); wp > 0 {
					add(c, w*wp)
				}
			}
			visitDesc(c, w)
		}
	}
	for _, e := range ctx {
		if st.axis == xpath.Child {
			for _, c := range e.n.Children {
				if matches(c) {
					if wp := r.predWeight(c, st); wp > 0 {
						add(c, e.w*wp)
					}
				}
			}
		} else {
			visitDesc(e.n, e.w)
		}
	}
	r.next = out
	r.hi = max(r.hi, len(out))
	return out
}

// predWeight returns the aggregated backward selectivity contribution of a
// step's predicates evaluated at EPT node n: the estimated fraction of the
// elements represented by n that satisfy every predicate.
//
// When the hyper-edge table holds a correlated backward selectivity for the
// branching pattern label(n)[preds...]/nextLabel (precompiled into
// wholeSuffix), that value is used for the whole predicate set, capturing
// sibling correlation (Section 5). Otherwise each predicate is first tried
// individually against the HET and independence is assumed across
// predicates (the absel product of Section 4).
func (r *runner) predWeight(n *EPTNode, st *planStep) float64 {
	if len(st.preds) == 0 {
		return 1
	}
	if r.het != nil && st.wholeSuffix != nil {
		h := pathhash.Bytes(r.hashes[n.Label], st.wholeSuffix)
		if bsel, ok := r.het.LookupPattern(h); ok {
			return clamp01(bsel)
		}
	}
	w := 1.0
	for j := range st.preds {
		// Individual 1BP pattern lookup before falling back to independence.
		if r.het != nil && st.predSuffix != nil && st.predSuffix[j] != nil {
			h := pathhash.Bytes(r.hashes[n.Label], st.predSuffix[j])
			if bsel, ok := r.het.LookupPattern(h); ok {
				w *= clamp01(bsel)
				continue
			}
		}
		pw := r.predPathWeight(n, st.preds[j].steps)
		if pw <= 0 {
			return 0
		}
		w *= pw
	}
	return clamp01(w)
}

// predPathWeight estimates the fraction of n's elements having a match of
// the relative path steps: the sum over witnesses of the product of
// backward selectivities along the EPT path from n to the witness, capped
// at 1 (a fraction). A single-witness, single-step predicate reduces to the
// paper's bsel term exactly.
func (r *runner) predPathWeight(n *EPTNode, steps []planPredStep) float64 {
	if len(steps) == 0 {
		return 1
	}
	st := &steps[0]
	if !st.known {
		return 0
	}
	matches := func(c *EPTNode) bool { return st.wildcard || c.Label == st.label }
	if st.axis == xpath.Child {
		var sum float64
		for _, c := range n.Children {
			if matches(c) {
				sum += c.Bsel * r.stepOwnPreds(c, st) * r.predPathWeight(c, steps[1:])
			}
		}
		return clamp01(sum)
	}
	var visit func(parent *EPTNode) float64
	visit = func(parent *EPTNode) float64 {
		var s float64
		for _, c := range parent.Children {
			var here float64
			if matches(c) {
				here = r.stepOwnPreds(c, st) * r.predPathWeight(c, steps[1:])
			}
			s += c.Bsel * (here + visit(c))
		}
		return s
	}
	return clamp01(visit(n))
}

// stepOwnPreds evaluates the nested predicates attached to a predicate step
// (e.g. the [h] in /a/b[g[h]]). Nested predicates never consult the HET
// pattern table (there is no main-path sibling); independence applies.
func (r *runner) stepOwnPreds(c *EPTNode, st *planPredStep) float64 {
	w := 1.0
	for i := range st.preds {
		pw := r.predPathWeight(c, st.preds[i].steps)
		if pw <= 0 {
			return 0
		}
		w *= pw
	}
	return w
}

// simplePredLabels extracts predicate labels when every predicate is a
// single child-axis name step without nesting — the shape stored in the
// HET.
func simplePredLabels(preds []*xpath.Path) ([]string, bool) {
	labels := make([]string, len(preds))
	for i, p := range preds {
		if len(p.Steps) != 1 {
			return nil, false
		}
		st := &p.Steps[0]
		if st.Axis != xpath.Child || st.Wildcard || len(st.Preds) != 0 {
			return nil, false
		}
		labels[i] = st.Label
	}
	return labels, true
}

func clamp01(f float64) float64 {
	if f > 1 {
		return 1
	}
	if f < 0 {
		return 0
	}
	return f
}
