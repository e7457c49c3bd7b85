package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The program carries no tracing of its own, so the traced pass cannot time
// the layers inside one request that crosses the socket. Instead each
// client rotates its requests through kinds that share one server and one
// cache history:
//
//   - "request": the real SDK call over the socket, timed end to end;
//   - "inproc": the same kind of request carried through each layer's
//     public function in turn by the benchmark (encode, decode, registry,
//     encode, decode), one child span per call;
//   - "handler" (HTTP only): the request through Handler().ServeHTTP on a
//     recorder, everything but the socket;
//   - "library": the batch's queries through xseed.ParseQuery,
//     Snapshot.Compile and Plan.Run on the pinned snapshot, outside any
//     served request.
//
// Because the kinds draw from the same query stream and the same cache, the
// mean of each layer's span over the in-process kinds is that layer's cost
// in a served request, and what the socket request costs beyond them is the
// transport residual.

// span is one timed call. Start and End are nanoseconds since the tracer's
// epoch; Parent indexes the request's span list (-1 for a root).
type span struct {
	Req    uint64 `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxLoggedSpans caps the span log kept in memory and written at the end;
// aggregates cover every span regardless.
const maxLoggedSpans = 50_000

type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu      sync.Mutex
	log     []span
	dropped int
	aggs    map[string]*agg // by op + "/" + span name
}

// agg sums one span name's durations and self times.
type agg struct {
	n             int64
	durNs, selfNs int64
	bytes         int64 // payload bytes recorded with the span, if any
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), aggs: map[string]*agg{}}
}

// reqTrace collects one traced operation's spans.
type reqTrace struct {
	t     *tracer
	op    string // "est" or "fb"
	req   uint64
	spans []span
	bytes map[int32]int64
}

func (t *tracer) begin(op string) *reqTrace {
	return &reqTrace{t: t, op: op, req: t.next.Add(1)}
}

// start opens a span under parent and returns its id.
func (r *reqTrace) start(name string, parent int32) int32 {
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Req: r.req, ID: id, Parent: parent, Name: name,
		Start: time.Since(r.t.epoch).Nanoseconds()})
	return id
}

func (r *reqTrace) end(id int32) { r.spans[id].End = time.Since(r.t.epoch).Nanoseconds() }

// addBytes records a payload size against a span.
func (r *reqTrace) addBytes(id int32, n int) {
	if r.bytes == nil {
		r.bytes = map[int32]int64{}
	}
	r.bytes[id] += int64(n)
}

// finish computes every span's self time and folds the request into the
// tracer's aggregates and span log.
func (r *reqTrace) finish() {
	self := selfTimes(r.spans)
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	for i, sp := range r.spans {
		key := r.op + "/" + sp.Name
		a := r.t.aggs[key]
		if a == nil {
			a = &agg{}
			r.t.aggs[key] = a
		}
		a.n++
		a.durNs += sp.End - sp.Start
		a.selfNs += self[i]
		a.bytes += r.bytes[int32(i)]
	}
	if room := maxLoggedSpans - len(r.t.log); room >= len(r.spans) {
		r.t.log = append(r.t.log, r.spans...)
	} else {
		r.t.dropped += len(r.spans)
	}
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, sp := range spans {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], [2]int64{sp.Start, sp.End})
		}
	}
	out := make([]int64, len(spans))
	for i, sp := range spans {
		covered := int64(0)
		iv := kids[int32(i)]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		cur := sp.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], sp.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = sp.End - sp.Start - covered
	}
	return out
}

// mean returns the mean duration or self time (ns) of op/name, and its count.
func (t *tracer) mean(op, name string, self bool) (float64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[op+"/"+name]
	if a == nil || a.n == 0 {
		return 0, 0
	}
	v := a.durNs
	if self {
		v = a.selfNs
	}
	return float64(v) / float64(a.n), a.n
}

// meanBytes is the mean payload size recorded on op/name spans.
func (t *tracer) meanBytes(op, name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[op+"/"+name]
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.bytes) / float64(a.n)
}

// write stores the span log as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, sp := range t.log {
		if err := enc.Encode(sp); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
