package server

import (
	"context"
	"strings"

	"xseed/api"
	"xseed/internal/store"
)

// ops is the transport-neutral operation layer. Every data-path request,
// whichever transport decoded it, runs through one of its methods, and
// each method applies the request policy in one fixed order:
//
//  1. the name becomes a tenant-qualified key (NUL rejected, see key)
//  2. partition ownership (a typed moved error for keys owned elsewhere)
//  3. argument validation (an empty batch or query is a bad_request)
//  4. the rate charge: 1 token, or n for a feedback batch of n, all or
//     nothing
//  5. the registry call
//  6. the mapping onto the api taxonomy (toAPIError)
//
// A misrouted or malformed request is therefore rejected before it costs
// the tenant a token, and HTTP and xtp cannot drift in what they accept.
// The transports stay codecs: they resolve the tenant, decode arguments,
// call an operation, and encode its (result, *api.Error).
type ops struct {
	reg *Registry

	// Cluster hooks, both nil off-cluster: owner answers a typed moved
	// error for a key another node owns, ringJSON serves the partition
	// ring. Set before any listener serves.
	owner    func(key string) *api.Error
	ringJSON func() ([]byte, bool)
}

// key runs steps 1–2 for a client-supplied synopsis name. A NUL byte is
// rejected at this boundary on every route that takes a name: store.Key
// reserves NUL as its separator, so a crafted name could otherwise alias
// another tenant's key.
func (o *ops) key(t *Tenant, name string) (string, *api.Error) {
	if strings.ContainsRune(name, 0) {
		return "", api.Errorf(api.CodeBadRequest, "synopsis name must not contain NUL")
	}
	key := store.Key(t.ID(), name)
	if o.owner != nil {
		if aerr := o.owner(key); aerr != nil {
			return "", aerr
		}
	}
	return key, nil
}

// admit runs steps 1–4: key and ownership, then the validation verdict
// (valid false answers "missing <what>"), then an n-token charge.
func (o *ops) admit(t *Tenant, name string, valid bool, what string, n int) (string, *api.Error) {
	key, aerr := o.key(t, name)
	switch {
	case aerr != nil:
		return "", aerr
	case !valid:
		return "", api.Errorf(api.CodeBadRequest, "missing %s", what)
	case !t.allowN(n):
		return "", api.Errorf(api.CodeQuotaExceeded, "tenant %q rate limit exceeded", t.ID())
	}
	return key, nil
}

// estimate answers one batch of queries against the named synopsis; a
// query that fails on its own is a per-item error, not a batch failure.
func (o *ops) estimate(ctx context.Context, t *Tenant, name string, queries []string, streaming bool) ([]api.EstimateItem, *api.Error) {
	key, aerr := o.admit(t, name, len(queries) > 0, "query or queries", 1)
	if aerr != nil {
		return nil, aerr
	}
	items, err := o.reg.EstimateBatch(ctx, key, queries, streaming)
	if err != nil {
		return nil, toAPIError(err)
	}
	return items, nil
}

// feedback records one executed query's actual cardinality.
func (o *ops) feedback(t *Tenant, name, query string, actual float64) *api.Error {
	key, aerr := o.admit(t, name, query != "", "query", 1)
	if aerr != nil {
		return aerr
	}
	if err := o.reg.Feedback(key, query, actual); err != nil {
		return toAPIError(err)
	}
	return nil
}

// feedbackBatch records n observations for the price of n tokens; the
// per-item errors are positional, like estimate's.
func (o *ops) feedbackBatch(t *Tenant, name string, items []api.FeedbackItem) ([]*api.Error, *api.Error) {
	key, aerr := o.admit(t, name, len(items) > 0, "items", len(items))
	if aerr != nil {
		return nil, aerr
	}
	errs, err := o.reg.FeedbackBatch(key, items)
	if err != nil {
		return nil, toAPIError(err)
	}
	return errs, nil
}

// stats is the tenant-scoped stats view.
func (o *ops) stats(t *Tenant) api.Stats { return o.reg.StatsFor(t) }

// ring is the partition ring as JSON (api.Ring).
func (o *ops) ring() ([]byte, *api.Error) {
	if o.ringJSON == nil {
		return nil, api.Errorf(api.CodeConflict, "server is not part of a cluster (start with -cluster)")
	}
	data, ok := o.ringJSON()
	if !ok {
		return nil, api.Errorf(api.CodeUnavailable, "ring not yet known")
	}
	return data, nil
}
