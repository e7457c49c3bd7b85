// Package estimate implements XSEED cardinality estimation (paper
// Section 4): the traveler that unfolds the kernel depth-first into the
// expanded path tree (EPT) computing estimated cardinality, forward
// selectivity and backward selectivity per rooted path (Algorithm 2 / the
// EST recurrences of Definition 5), and the matcher that evaluates a query
// twig over the EPT aggregating card × absel over result matches
// (Algorithm 3 semantics; see DESIGN.md for the precise multi-embedding
// semantics we fix).
package estimate

import (
	"xseed/internal/counterstack"
	"xseed/internal/kernel"
	"xseed/internal/pathhash"
	"xseed/internal/xmldoc"
)

// HET is the hyper-edge table interface the estimator consults; implemented
// by internal/het. Defining it here keeps the dependency one-way (het
// imports estimate for pre-computation).
type HET interface {
	// LookupPath returns the stored actual cardinality (and, when bselOK,
	// actual backward selectivity) for the rooted label path with the given
	// incHash value.
	LookupPath(h uint32) (card, bsel float64, bselOK, ok bool)
	// LookupPattern returns the stored correlated backward selectivity for
	// a branching pattern hash (pathhash.Pattern).
	LookupPattern(h uint32) (bsel float64, ok bool)
}

// Options configure estimation.
type Options struct {
	// CardThreshold prunes traversal: an EPT node whose estimated
	// cardinality is <= CardThreshold is not visited (Section 4; the paper
	// sets it to 20 for Treebank in Section 6.4, and it is the mechanism
	// that keeps the EPT small on highly recursive documents).
	CardThreshold float64

	// MaxEPTNodes is a hard safety cap on EPT size; traversal beyond it is
	// pruned and Truncated is reported. Zero means the default (1<<20).
	MaxEPTNodes int

	// HET, when non-nil, supplies actual cardinalities for simple paths and
	// correlated backward selectivities for branching patterns (Section 5).
	HET HET

	// ReuseEPT caches the expanded path tree across Estimate calls. The
	// paper's traveler regenerates it per query ("dynamically generated and
	// does not need to be stored"), which is what the timing experiments
	// measure, so the default is off; long-lived optimizers should enable
	// it and call Invalidate on synopsis updates.
	ReuseEPT bool
}

func (o Options) maxNodes() int {
	if o.MaxEPTNodes <= 0 {
		return 1 << 20
	}
	return o.MaxEPTNodes
}

// EPTNode is one node of the expanded path tree: a distinct rooted label
// path derivable from the kernel, with its estimated cardinality and
// selectivities.
type EPTNode struct {
	Label    xmldoc.LabelID
	ID       int32   // dense preorder index within its EPT; the root is 0
	Card     float64 // estimated |rooted simple path|
	Fsel     float64 // forward selectivity of the path (Definition 5)
	Bsel     float64 // backward selectivity of the path (Definition 5)
	Hash     uint32  // incHash of the rooted label path
	Children []*EPTNode
}

// EPTStats reports the size of a generated EPT (the Section 6.4 metric).
type EPTStats struct {
	Nodes     int  // EPT nodes generated (including the root); node IDs are [0, Nodes)
	Truncated bool // true if MaxEPTNodes pruned traversal
}

// BuildEPT unfolds the kernel into the expanded path tree.
func BuildEPT(k *kernel.Kernel, opt Options) (*EPTNode, EPTStats) {
	return buildEPT(k, k.Dict(), opt)
}

// buildEPT is BuildEPT resolving label names through an explicit dictionary.
// Estimation snapshots pass their frozen clone so a lazy build never reads
// the live dictionary a concurrent subtree update may be interning into.
func buildEPT(k *kernel.Kernel, dict *xmldoc.Dict, opt Options) (*EPTNode, EPTStats) {
	if !k.HasRoot() {
		return nil, EPTStats{}
	}
	b := &eptBuilder{
		k:    k,
		opt:  opt,
		max:  opt.maxNodes(),
		rl:   counterstack.New[xmldoc.LabelID](),
		dict: dict,
	}
	rootLabel := k.RootLabel()
	b.rl.Push(rootLabel)
	root := &EPTNode{
		Label: rootLabel,
		Card:  float64(k.RootCount()),
		Fsel:  1,
		Bsel:  1,
		Hash:  pathhash.AddLabel(pathhash.Basis, b.dict.Name(rootLabel)),
	}
	b.nodes = 1
	// A HET entry for the root path would be redundant (the root count is
	// exact) but is honored for uniformity.
	if opt.HET != nil {
		if card, bsel, bselOK, ok := opt.HET.LookupPath(root.Hash); ok {
			root.Card = card
			if bselOK {
				root.Bsel = bsel
			}
		}
	}
	b.expand(root, k.Vertex(rootLabel))
	b.rl.Pop(rootLabel)
	return root, EPTStats{Nodes: b.nodes, Truncated: b.truncated}
}

type eptBuilder struct {
	k         *kernel.Kernel
	opt       Options
	dict      *xmldoc.Dict
	rl        *counterstack.Stack[xmldoc.LabelID]
	nodes     int
	max       int
	truncated bool
}

// expand visits vertex v's out-edges in deterministic (label id) order,
// applying the EST recurrences; children surviving the cardinality
// threshold are attached and recursed into. This is the recursion that
// Algorithm 2's explicit pathTrace stack linearizes.
func (b *eptBuilder) expand(n *EPTNode, v *kernel.Vertex) {
	if v == nil {
		return
	}
	oldLvl := b.rl.Level()
	for _, e := range v.Out {
		if b.nodes >= b.max {
			b.truncated = true
			return
		}
		b.rl.Push(e.To)
		lvl := b.rl.Level()

		// EST (Algorithm 2): card, fsel, bsel of the extended path.
		var card, fsel, bsel float64
		if lvl < len(e.Levels) {
			card = float64(e.Levels[lvl].C) * n.Fsel
			if su := b.k.TotalChildren(v.Label, oldLvl); su > 0 {
				bsel = float64(e.Levels[lvl].P) / float64(su)
			}
		}
		h := pathhash.AddLabel(n.Hash, b.dict.Name(e.To))
		if b.opt.HET != nil {
			if aCard, aBsel, bselOK, ok := b.opt.HET.LookupPath(h); ok {
				card = aCard
				if bselOK {
					bsel = aBsel
				}
			}
		}
		if sv := b.k.TotalChildren(e.To, lvl); sv > 0 {
			fsel = card / float64(sv)
		}

		if card <= b.opt.CardThreshold {
			b.rl.Pop(e.To)
			continue
		}
		child := &EPTNode{Label: e.To, ID: int32(b.nodes), Card: card, Fsel: fsel, Bsel: bsel, Hash: h}
		n.Children = append(n.Children, child)
		b.nodes++
		b.expand(child, b.k.Vertex(e.To))
		b.rl.Pop(e.To)
	}
}
