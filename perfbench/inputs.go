package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"xseed"
)

// query is one workload query: its text as the client sends it and the
// exact cardinality the generator evaluated on the document.
type query struct {
	text   string
	actual float64
}

// inputs is everything a workload sends, made from the seed before any
// timing starts. The served stack sees only xml and the query texts.
type inputs struct {
	xml   []byte
	pool  []query // estimate pool
	fback []query // feedback pool (http-feedback-mix only)
}

// queryGen is one slice of a workload's query mix.
type queryGen struct {
	class    string // "SP", "BP" or "CP"
	n        int    // queries to generate (SP: at most n)
	maxPreds int    // predicates per step for BP/CP
}

// makeInputs generates the dataset document from the seed, renders it as
// XML, and draws the query pool (deduplicated by normalized text, exact
// counts attached). BP and CP generation evaluates every query exactly on
// the document, so it is split across two goroutines with seeds derived
// from the workload seed; the merge order is fixed, so the pool depends on
// the seed alone.
func makeInputs(dataset string, scale float64, seed int64, gens []queryGen) (*inputs, error) {
	doc, err := xseed.Generate(dataset, scale, seed)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", dataset, err)
	}
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		return nil, fmt.Errorf("render %s: %w", dataset, err)
	}
	in := &inputs{xml: buf.Bytes()}
	seen := map[string]bool{}
	add := func(qs []*xseed.Query) {
		for _, q := range qs {
			s := q.String()
			if seen[s] {
				continue
			}
			seen[s] = true
			a, _ := q.Actual()
			in.pool = append(in.pool, query{text: s, actual: float64(a)})
		}
	}
	for gi, g := range gens {
		if g.class == "SP" {
			add(doc.SimplePathQueries(g.n))
			continue
		}
		const parts = 2
		out := make([][]*xseed.Query, parts)
		errs := make([]error, parts)
		var wg sync.WaitGroup
		for p := 0; p < parts; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				out[p], errs[p] = doc.RandomWorkloadOpts(g.class, xseed.WorkloadOptions{
					N:               (g.n + parts - 1) / parts,
					MaxPredsPerStep: g.maxPreds,
					Seed:            seed*1_000_003 + int64(gi*parts+p),
				})
			}(p)
		}
		wg.Wait()
		for p := 0; p < parts; p++ {
			if errs[p] != nil {
				return nil, errs[p]
			}
			add(out[p])
		}
	}
	return in, nil
}

// shuffled returns a seeded permutation of the pool, so Zipf rank and pool
// order do not follow the generator's SP/BP/CP order.
func shuffled(pool []query, seed int64) []query {
	out := append([]query(nil), pool...)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
