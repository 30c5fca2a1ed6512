package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vidrec/internal/kvstore"
)

// span is one timed call across a layer boundary. Spans are recorded from the
// benchmark's own files, around the calls into each layer; depth says how far
// below the request the boundary sits (0 the request itself, 1 the store
// handed to the system, 2 the net client under Resilient, 3 a shard group's
// replica), and Parent is filled in afterwards from time containment.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Depth  int    `json:"depth"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Keys   int    `json:"keys,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Recording is off unless
// enabled, so the same store stack serves the untraced replay the tracing
// overhead is measured against.
type tracer struct {
	t0  time.Time
	on  atomic.Bool
	req atomic.Int64 // the request every span recorded now belongs to

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(name string, depth int, start, end int64, keys int) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Req: t.req.Load(), Name: name, Depth: depth, Start: start, End: end, Keys: keys})
	t.mu.Unlock()
}

// recorded returns the spans recorded so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// linkSpans assigns every span its parent: the latest-starting span of the
// same request and a smaller depth whose interval contains it. Requests are
// replayed one at a time, so containment within a request is unambiguous even
// when a router fans one call out to several replicas at once.
func linkSpans(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.Depth < sb.Depth
	})
	var open []int // indexes of spans that may still contain later ones, in start order
	for _, i := range order {
		s := &spans[i]
		live := open[:0]
		for _, j := range open {
			if spans[j].End >= s.Start {
				live = append(live, j)
			}
		}
		open = live
		for j := len(open) - 1; j >= 0; j-- {
			if p := spans[open[j]]; p.Depth < s.Depth && p.Req == s.Req && p.Start <= s.Start && p.End >= s.End {
				s.Parent = p.ID
				break
			}
		}
		open = append(open, i)
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of that
// interval its child spans cover — overlapping children (a parallel fan-out)
// are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one reported
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one reported
		return err
	}
	return f.Close()
}

// keyOp is one store operation of the recorded key trace the decorator probes
// replay: what was asked, of which keys, and how large the value written was.
type keyOp struct {
	op    string // get, set, mget, update, delete
	keys  []string
	bytes int
}

// spanStore is the benchmark's own kvstore.Store: it forwards to inner and,
// while the tracer is on, records a span around every operation. The one
// placed directly under the system also keeps the key trace.
type spanStore struct {
	inner kvstore.Store
	tr    *tracer
	layer string
	depth int

	keepKeys bool
	mu       sync.Mutex
	ops      []keyOp // guarded by mu
}

func newSpanStore(inner kvstore.Store, tr *tracer, layer string, depth int) *spanStore {
	return &spanStore{inner: inner, tr: tr, layer: layer, depth: depth}
}

// keyTrace returns the operations recorded so far.
func (s *spanStore) keyTrace() []keyOp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

func (s *spanStore) done(op string, start int64, keys []string, bytes int) {
	s.tr.record(s.layer+"."+op, s.depth, start, s.tr.now(), len(keys))
	if s.keepKeys {
		s.mu.Lock()
		s.ops = append(s.ops, keyOp{op: op, keys: append([]string(nil), keys...), bytes: bytes})
		s.mu.Unlock()
	}
}

func (s *spanStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	if !s.tr.on.Load() {
		return s.inner.Get(ctx, key)
	}
	start := s.tr.now()
	v, ok, err := s.inner.Get(ctx, key)
	s.done("get", start, []string{key}, len(v))
	return v, ok, err
}

func (s *spanStore) Set(ctx context.Context, key string, val []byte) error {
	if !s.tr.on.Load() {
		return s.inner.Set(ctx, key, val)
	}
	start := s.tr.now()
	err := s.inner.Set(ctx, key, val)
	s.done("set", start, []string{key}, len(val))
	return err
}

func (s *spanStore) Delete(ctx context.Context, key string) (bool, error) {
	if !s.tr.on.Load() {
		return s.inner.Delete(ctx, key)
	}
	start := s.tr.now()
	ok, err := s.inner.Delete(ctx, key)
	s.done("delete", start, []string{key}, 0)
	return ok, err
}

func (s *spanStore) MGet(ctx context.Context, keys []string) ([][]byte, error) {
	if !s.tr.on.Load() {
		return s.inner.MGet(ctx, keys)
	}
	start := s.tr.now()
	vals, err := s.inner.MGet(ctx, keys)
	s.done("mget", start, keys, 0)
	return vals, err
}

func (s *spanStore) Update(ctx context.Context, key string, fn func(cur []byte, exists bool) ([]byte, bool)) error {
	if !s.tr.on.Load() {
		return s.inner.Update(ctx, key, fn)
	}
	start := s.tr.now()
	size := 0
	err := s.inner.Update(ctx, key, func(cur []byte, exists bool) ([]byte, bool) {
		next, ok := fn(cur, exists)
		size = len(next)
		return next, ok
	})
	s.done("update", start, []string{key}, size)
	return err
}

func (s *spanStore) Len(ctx context.Context) (int, error) { return s.inner.Len(ctx) }
