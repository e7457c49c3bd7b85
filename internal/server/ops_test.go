package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xseed"
	"xseed/api"
	"xseed/internal/fixtures"
	"xseed/internal/store"
	"xseed/internal/wire"
)

// opsTransport drives one transport's data-path requests as tenant "acme"
// and reports each request's typed rejection (nil on success).
type opsTransport struct {
	estimate func(name string, queries []string) *api.Error
	feedback func(name, query string) *api.Error
	batch    func(name string, n int) *api.Error
}

// feedbackItems is a well-formed feedback batch of n events.
func feedbackItems(n int) []api.FeedbackItem {
	items := make([]api.FeedbackItem, n)
	for i := range items {
		items[i] = api.FeedbackItem{Query: "/a/c/s", Actual: float64(2 + i)}
	}
	return items
}

// movedElsewhere is a fake ownership hook: the synopsis "elsewhere" lives
// on another node, everything else is local.
func movedElsewhere(key string) *api.Error {
	if _, bare := store.SplitKey(key); bare == "elsewhere" {
		return api.NewMovedError(bare, "http://other:1", 7)
	}
	return nil
}

// opsBackends builds a server whose only tenant "acme" has a bucket of
// burst tokens that never refills during the test and owns "doc" (the
// paper's Figure 2 document), then returns the HTTP and xtp transports
// over it, both consulting movedElsewhere for ownership.
func opsBackends(t *testing.T, burst float64) map[string]opsTransport {
	t.Helper()
	s, err := New(Config{CacheCapacity: 64, Tenants: []TenantConfig{
		{ID: "acme", Token: "acme-tok", RatePerSec: 0.0001, Burst: burst},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	doc, err := xseed.ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := xseed.BuildSynopsis(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Add(store.Key("acme", "doc"), syn, "test"); err != nil {
		t.Fatal(err)
	}
	s.ops.owner = movedElsewhere
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	post := func(path string, body any) *api.Error {
		req, err := http.NewRequest("POST", ts.URL+"/v1/synopses/"+path, bytes.NewReader(mustJSON(t, body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer acme-tok")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode < 300 {
			return nil
		}
		var ae *api.Error
		if !errors.As(api.DecodeErrorBody(resp.StatusCode, data), &ae) {
			t.Fatalf("untyped error body %q", data)
		}
		return ae
	}

	x := NewXTP(s.Registry(), XTPOptions{})
	x.AttachCluster(movedElsewhere, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go x.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		x.Shutdown(ctx)
	})
	_, r, w := dialRaw(t, ln.Addr().String())
	var corr uint64
	call := func(ft wire.FrameType, payload []byte) *api.Error {
		corr++
		if err := w.WriteFrame(ft, corr, payload); err != nil {
			t.Fatal(err)
		}
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Corr != corr {
			t.Fatalf("response corr %d, want %d", f.Corr, corr)
		}
		var ae *api.Error
		switch f.Type {
		case wire.FrameError:
			ae, err = wire.DecodeError(f.Payload)
		case wire.FrameFeedbackAck:
			ae, err = wire.DecodeFeedbackAck(f.Payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		return ae
	}
	if ae := call(wire.FrameAuthReq, wire.AppendAuthReq(nil, "acme-tok")); ae != nil {
		t.Fatalf("auth: %v", ae)
	}

	return map[string]opsTransport{
		"http": {
			estimate: func(name string, queries []string) *api.Error {
				return post(name+"/estimate", api.EstimateRequest{Queries: queries})
			},
			feedback: func(name, query string) *api.Error {
				return post(name+"/feedback", api.FeedbackRequest{Query: query, Actual: 3})
			},
			batch: func(name string, n int) *api.Error {
				return post(name+"/feedback:batch", api.FeedbackBatchRequest{Items: feedbackItems(n)})
			},
		},
		"xtp": {
			estimate: func(name string, queries []string) *api.Error {
				return call(wire.FrameEstimateReq, wire.AppendEstimateReq(nil, name, queries, false))
			},
			feedback: func(name, query string) *api.Error {
				return call(wire.FrameFeedbackReq, wire.AppendFeedbackReq(nil, name, query, 3))
			},
			batch: func(name string, n int) *api.Error {
				return call(wire.FrameFeedbackBatchReq, wire.AppendFeedbackBatchReq(nil, name, feedbackItems(n)))
			},
		},
	}
}

// TestOpsRejectionsCostNoTokens pins the operation layer's policy order on
// both transports: ownership and validation run before the rate charge,
// so a misrouted request answers moved and a malformed one bad_request
// without spending any of the tenant's tokens — afterwards the bucket
// still admits a correctly routed batch of its full burst. Each transport
// gets a fresh server, so the two never share a bucket.
func TestOpsRejectionsCostNoTokens(t *testing.T) {
	const burst = 4
	for _, name := range []string{"http", "xtp"} {
		t.Run(name, func(t *testing.T) {
			tr := opsBackends(t, burst)[name]
			expect := func(what string, got *api.Error, code string) {
				t.Helper()
				if got == nil || got.Code != code {
					t.Fatalf("%s = %v, want typed %s", what, got, code)
				}
			}
			expect("misrouted feedback batch", tr.batch("elsewhere", burst), api.CodeMoved)
			expect("misrouted estimate", tr.estimate("elsewhere", []string{"/a/c/s"}), api.CodeMoved)
			expect("misrouted feedback", tr.feedback("elsewhere", "/a/c/s"), api.CodeMoved)
			expect("empty estimate", tr.estimate("doc", nil), api.CodeBadRequest)
			expect("empty feedback query", tr.feedback("doc", ""), api.CodeBadRequest)
			expect("empty feedback batch", tr.batch("doc", 0), api.CodeBadRequest)

			if ae := tr.batch("doc", burst); ae != nil {
				t.Fatalf("routed batch of the full burst after rejections = %v, want admitted", ae)
			}
			// The bucket really held burst tokens: the next request is over.
			expect("request past the burst", tr.estimate("doc", []string{"/a/c/s"}), api.CodeQuotaExceeded)
		})
	}
}
