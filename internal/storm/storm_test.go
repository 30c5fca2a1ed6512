package storm

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sliceSpout emits one tuple per value, optionally tracked, then reports
// exhaustion. Ack/Fail notifications are counted.
type sliceSpout struct {
	values  []Values
	tracked bool
	pos     int
	out     *SpoutCollector

	mu     sync.Mutex
	acked  []any
	failed []any
}

func (s *sliceSpout) Open(_ *Context, out *SpoutCollector) error { s.out = out; return nil }
func (s *sliceSpout) Close() error                               { return nil }
func (s *sliceSpout) NextTuple() (bool, error) {
	if s.pos >= len(s.values) {
		return false, nil
	}
	v := s.values[s.pos]
	if s.tracked {
		s.out.EmitTracked(s.pos, v)
	} else {
		s.out.Emit(v)
	}
	s.pos++
	return true, nil
}
func (s *sliceSpout) Ack(msgID any) {
	s.mu.Lock()
	s.acked = append(s.acked, msgID)
	s.mu.Unlock()
}
func (s *sliceSpout) Fail(msgID any) {
	s.mu.Lock()
	s.failed = append(s.failed, msgID)
	s.mu.Unlock()
}

// funcBolt adapts a function to the Bolt interface.
type funcBolt struct {
	fn  func(t *Tuple, out *BoltCollector) error
	out *BoltCollector
	ctx *Context
}

func (b *funcBolt) Prepare(ctx *Context, out *BoltCollector) error {
	b.ctx, b.out = ctx, out
	return nil
}
func (b *funcBolt) Execute(t *Tuple) error { return b.fn(t, b.out) }
func (b *funcBolt) Cleanup() error         { return nil }

func intValues(n int) []Values {
	out := make([]Values, n)
	for i := range out {
		out[i] = Values{fmt.Sprintf("k%d", i%7), i}
	}
	return out
}

func TestBuilderValidation(t *testing.T) {
	mkSpout := func() Spout { return &sliceSpout{} }
	mkBolt := func() Bolt { return &funcBolt{fn: func(*Tuple, *BoltCollector) error { return nil }} }

	t.Run("empty topology", func(t *testing.T) {
		if _, err := NewBuilder("t").Build(); err == nil {
			t.Error("empty topology accepted")
		}
	})
	t.Run("no spout", func(t *testing.T) {
		b := NewBuilder("t")
		b.SetBolt("b", mkBolt, 1).ShuffleGrouping("b")
		if _, err := b.Build(); err == nil {
			t.Error("spoutless topology accepted")
		}
	})
	t.Run("spout without output fields", func(t *testing.T) {
		b := NewBuilder("t")
		b.SetSpout("s", mkSpout, 1)
		if _, err := b.Build(); err == nil {
			t.Error("schemaless spout accepted")
		}
	})
	t.Run("unknown producer", func(t *testing.T) {
		b := NewBuilder("t")
		b.SetSpout("s", mkSpout, 1).OutputFields("k")
		b.SetBolt("b", mkBolt, 1).ShuffleGrouping("nope")
		if _, err := b.Build(); err == nil {
			t.Error("subscription to unknown producer accepted")
		}
	})
	t.Run("grouping on absent field", func(t *testing.T) {
		b := NewBuilder("t")
		b.SetSpout("s", mkSpout, 1).OutputFields("k")
		b.SetBolt("b", mkBolt, 1).FieldsGrouping("s", "missing")
		if _, err := b.Build(); err == nil {
			t.Error("grouping on absent field accepted")
		}
	})
	t.Run("bolt without inputs", func(t *testing.T) {
		b := NewBuilder("t")
		b.SetSpout("s", mkSpout, 1).OutputFields("k")
		b.SetBolt("b", mkBolt, 1)
		if _, err := b.Build(); err == nil {
			t.Error("inputless bolt accepted")
		}
	})
	t.Run("cycle", func(t *testing.T) {
		b := NewBuilder("t")
		b.SetSpout("s", mkSpout, 1).OutputFields("k")
		b.SetBolt("b1", mkBolt, 1).ShuffleGrouping("s").ShuffleGrouping("b2").OutputFields("k")
		b.SetBolt("b2", mkBolt, 1).ShuffleGrouping("b1").OutputFields("k")
		if _, err := b.Build(); err == nil {
			t.Error("cyclic topology accepted")
		}
	})
	t.Run("valid chain", func(t *testing.T) {
		b := NewBuilder("t")
		b.SetSpout("s", mkSpout, 2).OutputFields("k", "n")
		b.SetBolt("b1", mkBolt, 3).FieldsGrouping("s", "k").OutputFields("k", "n")
		b.SetBolt("b2", mkBolt, 1).ShuffleGrouping("b1")
		if _, err := b.Build(); err != nil {
			t.Errorf("valid topology rejected: %v", err)
		}
	})
}

func TestTopologyDeliversAllTuples(t *testing.T) {
	const n = 500
	var count atomic.Int64
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(n)} }, 1).
		OutputFields("k", "n")
	b.SetBolt("count", func() Bolt {
		return &funcBolt{fn: func(*Tuple, *BoltCollector) error {
			count.Add(1)
			return nil
		}}
	}, 4).ShuffleGrouping("s")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if count.Load() != n {
		t.Errorf("bolt executed %d tuples, want %d", count.Load(), n)
	}
	m, _ := topo.MetricsFor("s")
	if m.Emitted != n || m.Delivered != n {
		t.Errorf("spout metrics = %+v", m)
	}
}

func TestFieldsGroupingSingleWriter(t *testing.T) {
	// Every tuple with the same key must land on the same task — the §5.1
	// single-writer guarantee.
	const n = 1000
	var mu sync.Mutex
	keyTask := map[string]map[int]bool{}
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(n)} }, 1).
		OutputFields("k", "n")
	b.SetBolt("sink", func() Bolt {
		fb := &funcBolt{}
		fb.fn = func(tp *Tuple, _ *BoltCollector) error {
			k, err := Get[string](tp, "k")
			if err != nil {
				return err
			}
			mu.Lock()
			if keyTask[k] == nil {
				keyTask[k] = map[int]bool{}
			}
			keyTask[k][fb.ctx.Task] = true
			mu.Unlock()
			return nil
		}
		return fb
	}, 5).FieldsGrouping("s", "k")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	usedTasks := map[int]bool{}
	for k, tasks := range keyTask {
		if len(tasks) != 1 {
			t.Errorf("key %q processed by %d tasks, want exactly 1", k, len(tasks))
		}
		for task := range tasks {
			usedTasks[task] = true
		}
	}
	if len(keyTask) != 7 {
		t.Errorf("saw %d distinct keys, want 7", len(keyTask))
	}
	if len(usedTasks) < 2 {
		t.Errorf("all keys routed to %d task(s); expected spread over several", len(usedTasks))
	}
}

func TestShuffleGroupingBalances(t *testing.T) {
	const n = 1000
	counts := make([]atomic.Int64, 4)
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(n)} }, 1).
		OutputFields("k", "n")
	b.SetBolt("sink", func() Bolt {
		fb := &funcBolt{}
		fb.fn = func(*Tuple, *BoltCollector) error {
			counts[fb.ctx.Task].Add(1)
			return nil
		}
		return fb
	}, 4).ShuffleGrouping("s")
	topo, _ := b.Build()
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		got := counts[i].Load()
		if got != n/4 {
			t.Errorf("task %d processed %d, want %d (round-robin)", i, got, n/4)
		}
	}
}

func TestAllGroupingReplicates(t *testing.T) {
	const n, par = 100, 3
	var count atomic.Int64
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(n)} }, 1).
		OutputFields("k", "n")
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{fn: func(*Tuple, *BoltCollector) error { count.Add(1); return nil }}
	}, par).AllGrouping("s")
	topo, _ := b.Build()
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if count.Load() != n*par {
		t.Errorf("executed %d, want %d (every task sees every tuple)", count.Load(), n*par)
	}
}

func TestGlobalGroupingRoutesToTaskZero(t *testing.T) {
	const n = 100
	counts := make([]atomic.Int64, 3)
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(n)} }, 1).
		OutputFields("k", "n")
	b.SetBolt("sink", func() Bolt {
		fb := &funcBolt{}
		fb.fn = func(*Tuple, *BoltCollector) error { counts[fb.ctx.Task].Add(1); return nil }
		return fb
	}, 3).GlobalGrouping("s")
	topo, _ := b.Build()
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if counts[0].Load() != n || counts[1].Load() != 0 || counts[2].Load() != 0 {
		t.Errorf("counts = [%d %d %d], want [%d 0 0]",
			counts[0].Load(), counts[1].Load(), counts[2].Load(), n)
	}
}

func TestMultiStagePipeline(t *testing.T) {
	// spout -> double (emits 2 per input) -> sink; checks fan-out counting
	// and that downstream receives transformed values.
	const n = 200
	var sum atomic.Int64
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(n)} }, 2).
		OutputFields("k", "n")
	b.SetBolt("double", func() Bolt {
		return &funcBolt{fn: func(tp *Tuple, out *BoltCollector) error {
			out.Emit(Values{tp.Values[0], 1})
			out.Emit(Values{tp.Values[0], 1})
			return nil
		}}
	}, 3).ShuffleGrouping("s").OutputFields("k", "one")
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{fn: func(tp *Tuple, _ *BoltCollector) error {
			sum.Add(int64(tp.Values[1].(int)))
			return nil
		}}
	}, 2).FieldsGrouping("double", "k")
	topo, _ := b.Build()
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Two spout tasks each emit the full slice (each task gets its own
	// sliceSpout instance with the same values).
	if sum.Load() != 2*2*n {
		t.Errorf("sink sum = %d, want %d", sum.Load(), 2*2*n)
	}
}

func TestAckingCompleteTrees(t *testing.T) {
	const n = 300
	spouts := make(chan *sliceSpout, 1)
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout {
		s := &sliceSpout{values: intValues(n), tracked: true}
		spouts <- s
		return s
	}, 1).OutputFields("k", "n")
	b.SetBolt("mid", func() Bolt {
		return &funcBolt{fn: func(tp *Tuple, out *BoltCollector) error {
			out.Emit(Values{tp.Values[0], tp.Values[1]})
			return nil
		}}
	}, 3).FieldsGrouping("s", "k").OutputFields("k", "n")
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{fn: func(*Tuple, *BoltCollector) error { return nil }}
	}, 2).ShuffleGrouping("mid")
	topo, _ := b.Build()
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := <-spouts
	if len(s.acked) != n {
		t.Errorf("acked %d trees, want %d", len(s.acked), n)
	}
	if len(s.failed) != 0 {
		t.Errorf("failed %d trees, want 0", len(s.failed))
	}
	m, _ := topo.MetricsFor("s")
	if m.Acked != n {
		t.Errorf("metrics acked = %d, want %d", m.Acked, n)
	}
}

func TestAckingFailedTrees(t *testing.T) {
	const n = 50
	spouts := make(chan *sliceSpout, 1)
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout {
		s := &sliceSpout{values: intValues(n), tracked: true}
		spouts <- s
		return s
	}, 1).OutputFields("k", "n")
	b.SetBolt("flaky", func() Bolt {
		return &funcBolt{fn: func(tp *Tuple, _ *BoltCollector) error {
			if tp.Values[1].(int)%5 == 0 {
				return fmt.Errorf("synthetic failure")
			}
			return nil
		}}
	}, 2).ShuffleGrouping("s")
	topo, _ := b.Build()
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := <-spouts
	wantFailed := n / 5
	if len(s.failed) != wantFailed {
		t.Errorf("failed %d trees, want %d", len(s.failed), wantFailed)
	}
	if len(s.acked) != n-wantFailed {
		t.Errorf("acked %d trees, want %d", len(s.acked), n-wantFailed)
	}
}

func TestBackpressureSmallQueues(t *testing.T) {
	// A tiny queue forces the spout to block on a slow consumer; the run
	// must still complete with every tuple processed.
	const n = 200
	var count atomic.Int64
	b := NewBuilder("t").SetQueueSize(2)
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(n)} }, 1).
		OutputFields("k", "n")
	b.SetBolt("slow", func() Bolt {
		return &funcBolt{fn: func(*Tuple, *BoltCollector) error {
			time.Sleep(50 * time.Microsecond)
			count.Add(1)
			return nil
		}}
	}, 1).ShuffleGrouping("s")
	topo, _ := b.Build()
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if count.Load() != n {
		t.Errorf("processed %d, want %d", count.Load(), n)
	}
}

// infiniteSpout emits forever until its context is cancelled by the runtime.
type infiniteSpout struct{ out *SpoutCollector }

func (s *infiniteSpout) Open(_ *Context, out *SpoutCollector) error { s.out = out; return nil }
func (s *infiniteSpout) Close() error                               { return nil }
func (s *infiniteSpout) NextTuple() (bool, error) {
	s.out.Emit(Values{"k", 1})
	return true, nil
}

func TestContextCancellationStopsInfiniteStream(t *testing.T) {
	var count atomic.Int64
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout { return &infiniteSpout{} }, 1).OutputFields("k", "n")
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{fn: func(*Tuple, *BoltCollector) error { count.Add(1); return nil }}
	}, 2).ShuffleGrouping("s")
	topo, _ := b.Build()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- topo.Run(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("topology did not stop after cancellation")
	}
	if count.Load() == 0 {
		t.Error("no tuples processed before cancellation")
	}
}

func TestTopologyIsSingleUse(t *testing.T) {
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(1)} }, 1).
		OutputFields("k", "n")
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{fn: func(*Tuple, *BoltCollector) error { return nil }}
	}, 1).ShuffleGrouping("s")
	topo, _ := b.Build()
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := topo.Run(context.Background()); err == nil {
		t.Error("second Run succeeded, want error")
	}
}

func TestTupleFieldAccess(t *testing.T) {
	tp := &Tuple{Values: Values{"u1", 42}, schema: []string{"user", "n"}, Source: "s"}
	if v, err := Get[string](tp, "user"); err != nil || v != "u1" {
		t.Errorf("Get[string](user) = %q, %v", v, err)
	}
	if _, err := Get[string](tp, "n"); err == nil || !strings.Contains(err.Error(), `field "n" is int, not string`) {
		t.Errorf("Get[string] on int field: err = %v, want type error", err)
	}
	if _, err := Get[float64](tp, "n"); err == nil || !strings.Contains(err.Error(), `field "n" is int, not float64`) {
		t.Errorf("Get[float64] on int field: err = %v, want type error", err)
	}
	if _, err := Get[int](tp, "missing"); err == nil {
		t.Error("Get(missing) succeeded, want error")
	}
	if _, err := tp.Field("missing"); err == nil {
		t.Error("Field(missing) succeeded, want error")
	}
	if v, err := tp.Field("n"); err != nil || v.(int) != 42 {
		t.Errorf("Field(n) = %v, %v", v, err)
	}
}

func TestMetricsForUnknownComponent(t *testing.T) {
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout { return &sliceSpout{} }, 1).OutputFields("k")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.MetricsFor("nope"); err == nil {
		t.Error("MetricsFor unknown component succeeded")
	}
	if got := topo.Components(); len(got) != 1 || got[0] != "s" {
		t.Errorf("Components = %v", got)
	}
}

// trackingSpout records the maximum pending tracked-tuple count it ever
// observed between emissions.
type trackingSpout struct {
	sliceSpout
	pending    int
	maxPending int
}

func (s *trackingSpout) NextTuple() (bool, error) {
	if s.pending > s.maxPending {
		s.maxPending = s.pending
	}
	if s.pos >= len(s.values) {
		return false, nil
	}
	s.out.EmitTracked(s.pos, s.values[s.pos])
	s.pos++
	s.pending++
	return true, nil
}

func (s *trackingSpout) Ack(msgID any) {
	s.pending--
	s.sliceSpout.Ack(msgID)
}

func (s *trackingSpout) Fail(msgID any) {
	s.pending--
	s.sliceSpout.Fail(msgID)
}

func TestMaxSpoutPendingBoundsInFlightWork(t *testing.T) {
	const n, capPending = 300, 8
	spouts := make(chan *trackingSpout, 1)
	b := NewBuilder("t").SetMaxSpoutPending(capPending)
	b.SetSpout("s", func() Spout {
		s := &trackingSpout{sliceSpout: sliceSpout{values: intValues(n)}}
		spouts <- s
		return s
	}, 1).OutputFields("k", "n")
	b.SetBolt("slow", func() Bolt {
		return &funcBolt{fn: func(*Tuple, *BoltCollector) error {
			time.Sleep(100 * time.Microsecond)
			return nil
		}}
	}, 1).ShuffleGrouping("s")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := <-spouts
	if len(s.acked) != n {
		t.Errorf("acked %d, want %d", len(s.acked), n)
	}
	// Pending may reach the cap but not exceed it (the check happens
	// before each emission; pending increments after).
	if s.maxPending > capPending {
		t.Errorf("observed %d pending trees, cap %d", s.maxPending, capPending)
	}
}

func TestSpoutErrorRecorded(t *testing.T) {
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout {
		return &errorSpout{}
	}, 1).OutputFields("k")
	topo, _ := b.Build()
	if err := topo.Run(context.Background()); err == nil {
		t.Error("spout error not surfaced by Run")
	}
}

type errorSpout struct{}

func (s *errorSpout) Open(*Context, *SpoutCollector) error { return nil }
func (s *errorSpout) Close() error                         { return nil }
func (s *errorSpout) NextTuple() (bool, error)             { return false, fmt.Errorf("boom") }

// prepareFailBolt fails Prepare; its queue must still drain so upstream
// never blocks.
type prepareFailBolt struct{}

func (b *prepareFailBolt) Prepare(*Context, *BoltCollector) error { return fmt.Errorf("prepare boom") }
func (b *prepareFailBolt) Execute(*Tuple) error                   { return nil }
func (b *prepareFailBolt) Cleanup() error                         { return nil }

func TestBoltPrepareFailureDrainsQueue(t *testing.T) {
	b := NewBuilder("t").SetQueueSize(2) // small queue: upstream must not deadlock
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(500)} }, 1).
		OutputFields("k", "n")
	b.SetBolt("broken", func() Bolt { return &prepareFailBolt{} }, 1).ShuffleGrouping("s")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- topo.Run(context.Background()) }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("prepare failure not surfaced by Run")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("topology deadlocked after prepare failure")
	}
}

func TestFieldsGroupingOnIntField(t *testing.T) {
	// Grouping by a non-string field must route deterministically too.
	const n = 400
	var mu sync.Mutex
	keyTask := map[int]map[int]bool{}
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(n)} }, 1).
		OutputFields("k", "n")
	b.SetBolt("mod", func() Bolt {
		return &funcBolt{fn: func(tp *Tuple, out *BoltCollector) error {
			out.Emit(Values{tp.Values[1].(int) % 5})
			return nil
		}}
	}, 2).ShuffleGrouping("s").OutputFields("bucket")
	b.SetBolt("sink", func() Bolt {
		fb := &funcBolt{}
		fb.fn = func(tp *Tuple, _ *BoltCollector) error {
			v := tp.Values[0].(int)
			mu.Lock()
			if keyTask[v] == nil {
				keyTask[v] = map[int]bool{}
			}
			keyTask[v][fb.ctx.Task] = true
			mu.Unlock()
			return nil
		}
		return fb
	}, 4).FieldsGrouping("mod", "bucket")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for v, tasks := range keyTask {
		if len(tasks) != 1 {
			t.Errorf("int key %d processed by %d tasks, want 1", v, len(tasks))
		}
	}
	if len(keyTask) != 5 {
		t.Errorf("saw %d buckets, want 5", len(keyTask))
	}
}

func TestMultipleConsumersOfOneProducer(t *testing.T) {
	// Two bolts subscribing to the same spout must each receive every
	// tuple (stream duplication, not splitting).
	const n = 200
	var a, b2 atomic.Int64
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(n)} }, 1).
		OutputFields("k", "n")
	b.SetBolt("left", func() Bolt {
		return &funcBolt{fn: func(*Tuple, *BoltCollector) error { a.Add(1); return nil }}
	}, 2).ShuffleGrouping("s")
	b.SetBolt("right", func() Bolt {
		return &funcBolt{fn: func(*Tuple, *BoltCollector) error { b2.Add(1); return nil }}
	}, 3).FieldsGrouping("s", "k")
	topo, _ := b.Build()
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a.Load() != n || b2.Load() != n {
		t.Errorf("consumers saw %d/%d tuples, want %d each", a.Load(), b2.Load(), n)
	}
	m, _ := topo.MetricsFor("s")
	if m.Delivered != 2*n {
		t.Errorf("delivered = %d, want %d", m.Delivered, 2*n)
	}
}
