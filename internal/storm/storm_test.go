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
// exhaustion.
type sliceSpout struct {
	values  []Values
	tracked bool
	pos     int
	out     *SpoutCollector
}

func (s *sliceSpout) Open(_ context.Context, out *SpoutCollector) error { s.out = out; return nil }
func (s *sliceSpout) NextTuple() (bool, error) {
	if s.pos >= len(s.values) {
		return false, nil
	}
	v := s.values[s.pos]
	if s.tracked {
		s.out.EmitTracked(v)
	} else {
		s.out.Emit(v)
	}
	s.pos++
	return true, nil
}

// funcBolt adapts a function to the Bolt interface.
type funcBolt struct {
	fn  func(t *Tuple, out *BoltCollector) error
	out *BoltCollector
}

func (b *funcBolt) Prepare(_ context.Context, out *BoltCollector) error {
	b.out = out
	return nil
}
func (b *funcBolt) Execute(t *Tuple) error { return b.fn(t, b.out) }

// taskBolts returns a bolt factory whose instances know their task index:
// Build calls a component's factory once per task, in task order.
func taskBolts(fn func(task int, t *Tuple) error) func() Bolt {
	next := 0
	return func() Bolt {
		task := next
		next++
		return &funcBolt{fn: func(t *Tuple, _ *BoltCollector) error { return fn(task, t) }}
	}
}

// spoutMetrics runs topo and returns the spout component's counters.
func spoutMetrics(t *testing.T, topo *Topology) MetricsSnapshot {
	t.Helper()
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	m, err := topo.MetricsFor("s")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

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
		b.SetBolt("b", mkBolt, 1).FieldsGrouping("b", "k").OutputFields("k")
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
		b.SetBolt("b", mkBolt, 1).FieldsGrouping("nope", "k")
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
	t.Run("grouping names no fields", func(t *testing.T) {
		b := NewBuilder("t")
		b.SetSpout("s", mkSpout, 1).OutputFields("k")
		b.SetBolt("b", mkBolt, 1).FieldsGrouping("s")
		if _, err := b.Build(); err == nil {
			t.Error("fields grouping on no fields accepted")
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
		b.SetBolt("b1", mkBolt, 1).FieldsGrouping("s", "k").FieldsGrouping("b2", "k").OutputFields("k")
		b.SetBolt("b2", mkBolt, 1).FieldsGrouping("b1", "k").OutputFields("k")
		if _, err := b.Build(); err == nil {
			t.Error("cyclic topology accepted")
		}
	})
	t.Run("valid chain", func(t *testing.T) {
		b := NewBuilder("t")
		b.SetSpout("s", mkSpout, 2).OutputFields("k", "n")
		b.SetBolt("b1", mkBolt, 3).FieldsGrouping("s", "k").OutputFields("k", "n")
		b.SetBolt("b2", mkBolt, 1).FieldsGrouping("b1", "k")
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
	}, 4).FieldsGrouping("s", "k")
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
	b.SetBolt("sink", taskBolts(func(task int, tp *Tuple) error {
		k, err := Get[string](tp, "k")
		if err != nil {
			return err
		}
		mu.Lock()
		if keyTask[k] == nil {
			keyTask[k] = map[int]bool{}
		}
		keyTask[k][task] = true
		mu.Unlock()
		return nil
	}), 5).FieldsGrouping("s", "k")
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
	}, 3).FieldsGrouping("s", "k").OutputFields("k", "one")
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
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(n), tracked: true} }, 1).
		OutputFields("k", "n")
	b.SetBolt("mid", func() Bolt {
		return &funcBolt{fn: func(tp *Tuple, out *BoltCollector) error {
			out.Emit(Values{tp.Values[0], tp.Values[1]})
			return nil
		}}
	}, 3).FieldsGrouping("s", "k").OutputFields("k", "n")
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{fn: func(*Tuple, *BoltCollector) error { return nil }}
	}, 2).FieldsGrouping("mid", "k")
	topo, _ := b.Build()
	m := spoutMetrics(t, topo)
	if m.Acked != n {
		t.Errorf("acked %d trees, want %d", m.Acked, n)
	}
	if m.FailedTrees != 0 {
		t.Errorf("failed %d trees, want 0", m.FailedTrees)
	}
}

func TestAckingFailedTrees(t *testing.T) {
	const n = 50
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(n), tracked: true} }, 1).
		OutputFields("k", "n")
	b.SetBolt("flaky", func() Bolt {
		return &funcBolt{fn: func(tp *Tuple, _ *BoltCollector) error {
			if tp.Values[1].(int)%5 == 0 {
				return fmt.Errorf("synthetic failure")
			}
			return nil
		}}
	}, 2).FieldsGrouping("s", "k")
	topo, _ := b.Build()
	m := spoutMetrics(t, topo)
	const wantFailed = n / 5
	if m.FailedTrees != wantFailed {
		t.Errorf("failed %d trees, want %d", m.FailedTrees, wantFailed)
	}
	if m.Acked != n-wantFailed {
		t.Errorf("acked %d trees, want %d", m.Acked, n-wantFailed)
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
	}, 1).FieldsGrouping("s", "k")
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

func (s *infiniteSpout) Open(_ context.Context, out *SpoutCollector) error { s.out = out; return nil }
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
	}, 2).FieldsGrouping("s", "k")
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
	}, 1).FieldsGrouping("s", "k")
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

// pendingSpout is a tracked sliceSpout that records the most trees it ever
// had in flight at an emission, counted independently of the engine: spout
// emissions minus the executions the bolt has finished.
type pendingSpout struct {
	sliceSpout
	done       *atomic.Int64
	maxPending int64
}

func (s *pendingSpout) NextTuple() (bool, error) {
	s.maxPending = max(s.maxPending, int64(s.pos)-s.done.Load())
	return s.sliceSpout.NextTuple()
}

func TestMaxSpoutPendingBoundsInFlightWork(t *testing.T) {
	const n, capPending = 300, 8
	var done atomic.Int64
	spouts := make(chan *pendingSpout, 1)
	b := NewBuilder("t").SetMaxSpoutPending(capPending)
	b.SetSpout("s", func() Spout {
		s := &pendingSpout{sliceSpout: sliceSpout{values: intValues(n), tracked: true}, done: &done}
		spouts <- s
		return s
	}, 1).OutputFields("k", "n")
	b.SetBolt("slow", func() Bolt {
		return &funcBolt{fn: func(*Tuple, *BoltCollector) error {
			time.Sleep(100 * time.Microsecond)
			done.Add(1)
			return nil
		}}
	}, 1).FieldsGrouping("s", "k")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m := spoutMetrics(t, topo); m.Acked != n {
		t.Errorf("acked %d, want %d", m.Acked, n)
	}
	// An unfinished execution is an unresolved tree, so the count may
	// reach the cap but not exceed it.
	if s := <-spouts; s.maxPending > capPending {
		t.Errorf("observed %d pending trees, cap %d", s.maxPending, capPending)
	}
}

func TestSpoutErrorRecorded(t *testing.T) {
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout {
		return &errorSpout{}
	}, 1).OutputFields("k")
	topo, _ := b.Build()
	err := topo.Run(context.Background())
	if err == nil || err.Error() != "storm: spout s[0] next: boom" {
		t.Errorf("Run = %v, want the spout's next error", err)
	}
}

type errorSpout struct{}

func (s *errorSpout) Open(context.Context, *SpoutCollector) error { return nil }
func (s *errorSpout) NextTuple() (bool, error)                    { return false, fmt.Errorf("boom") }

// prepareFailBolt fails Prepare; its queue must still drain so upstream
// never blocks.
type prepareFailBolt struct{}

func (b *prepareFailBolt) Prepare(context.Context, *BoltCollector) error {
	return fmt.Errorf("prepare boom")
}
func (b *prepareFailBolt) Execute(*Tuple) error { return nil }

func TestBoltPrepareFailureDrainsQueue(t *testing.T) {
	b := NewBuilder("t").SetQueueSize(2) // small queue: upstream must not deadlock
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(500)} }, 1).
		OutputFields("k", "n")
	// Four tasks fail Prepare at once, so their errors are recorded
	// concurrently; Run must report each of them.
	const tasks = 4
	b.SetBolt("broken", func() Bolt { return &prepareFailBolt{} }, tasks).FieldsGrouping("s", "k")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- topo.Run(context.Background()) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("prepare failure not surfaced by Run")
		}
		for i := 0; i < tasks; i++ {
			if want := fmt.Sprintf("broken[%d] prepare", i); !strings.Contains(err.Error(), want) {
				t.Errorf("Run error %q does not report %s", err, want)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("topology deadlocked after prepare failure")
	}
}

func TestFieldsGroupingOnIntField(t *testing.T) {
	// Grouping by an int64 field (the bandit arm) must route
	// deterministically too.
	const n = 400
	var mu sync.Mutex
	keyTask := map[int64]map[int]bool{}
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(n)} }, 1).
		OutputFields("k", "n")
	b.SetBolt("mod", func() Bolt {
		return &funcBolt{fn: func(tp *Tuple, out *BoltCollector) error {
			out.Emit(Values{int64(tp.Values[1].(int) % 5)})
			return nil
		}}
	}, 2).FieldsGrouping("s", "k").OutputFields("bucket")
	b.SetBolt("sink", taskBolts(func(task int, tp *Tuple) error {
		v := tp.Values[0].(int64)
		mu.Lock()
		if keyTask[v] == nil {
			keyTask[v] = map[int]bool{}
		}
		keyTask[v][task] = true
		mu.Unlock()
		return nil
	}), 4).FieldsGrouping("mod", "bucket")
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
	}, 2).FieldsGrouping("s", "k")
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

// TestFieldsGroupingRoutesAsBefore pins the task a grouped value reaches.
// The expected indices were produced by the engine before its other
// groupings were removed; string and int64 are the field types the
// recommendation topology groups on, and the two-field case is ItemPairSim's
// (video1, video2) grouping.
func TestFieldsGroupingRoutesAsBefore(t *testing.T) {
	strs := []string{"u00001", "u00042", "g1|u|u00007", "g1|i|v00017", "", "v00300"}
	ints := []int64{0, 1, 2, 3, -1, 1 << 40}
	pairs := [][2]string{{"v00001", "v00002"}, {"v00002", "v00001"}, {"v00017", "v00300"}, {"a", "bc"}, {"ab", "c"}}
	want := map[int][3][]int{
		2: {{1, 0, 0, 0, 1, 0}, {1, 0, 1, 0, 1, 0}, {0, 0, 0, 1, 1}},
		3: {{0, 1, 1, 2, 2, 2}, {1, 0, 0, 2, 1, 1}, {2, 2, 0, 0, 0}},
		4: {{3, 2, 2, 0, 1, 2}, {1, 0, 3, 2, 1, 2}, {0, 0, 0, 3, 3}},
	}
	for n, w := range want {
		c := &component{tasks: make([]*task, n)}
		for i := range c.tasks {
			c.tasks[i] = &task{index: i}
		}
		one := &consumerLink{comp: c, fields: []int{0}}
		two := &consumerLink{comp: c, fields: []int{0, 1}}
		var got [3][]int
		for _, v := range strs {
			got[0] = append(got[0], one.target(Values{v}).index)
		}
		for _, v := range ints {
			got[1] = append(got[1], one.target(Values{v}).index)
		}
		for _, p := range pairs {
			got[2] = append(got[2], two.target(Values{p[0], p[1]}).index)
		}
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("%d tasks: routed to %v, want %v", n, got, w)
		}
	}
}

// A bolt whose Prepare failed fails every tree delivered to it, under either
// scheduler, so a tracked spout's trees all resolve and Run returns the
// Prepare error instead of waiting forever.
func TestTrackedPrepareFailureFailsTrees(t *testing.T) {
	const n = 100
	for _, synchronous := range []bool{false, true} {
		b := NewBuilder("t").SetSynchronous(synchronous).SetQueueSize(2)
		b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(n), tracked: true} }, 1).
			OutputFields("k", "n")
		b.SetBolt("broken", func() Bolt { return &prepareFailBolt{} }, 1).FieldsGrouping("s", "k")
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- topo.Run(context.Background()) }()
		select {
		case err := <-done:
			if err == nil || err.Error() != "storm: bolt broken[0] prepare: prepare boom" {
				t.Errorf("synchronous=%v: Run = %v, want the prepare error", synchronous, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("synchronous=%v: tracked run hung after a prepare failure", synchronous)
		}
		m, _ := topo.MetricsFor("s")
		if m.FailedTrees != n || m.Acked != 0 {
			t.Errorf("synchronous=%v: acked %d, failed %d trees; want 0, %d", synchronous, m.Acked, m.FailedTrees, n)
		}
		if bm, _ := topo.MetricsFor("broken"); bm.Executed != 0 || bm.Failed != n {
			t.Errorf("synchronous=%v: broken bolt executed %d, failed %d; want 0, %d", synchronous, bm.Executed, bm.Failed, n)
		}
	}
}
