package storm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// buildSyncDiamond assembles spout → (left, right) → sink, all synchronous,
// with sink recording the exact order of tuples it executes. The diamond
// shape is the interesting case: under the concurrent scheduler left and
// right race; under the synchronous one their interleaving is fixed.
func buildSyncDiamond(t *testing.T, n int, tracked bool) (*Topology, *[]string) {
	t.Helper()
	var order []string
	var mu sync.Mutex
	b := NewBuilder("sync-diamond").SetSynchronous(true)
	b.SetSpout("s", func() Spout {
		return &sliceSpout{values: intValues(n), tracked: tracked}
	}, 1).OutputFields("k", "i")
	passThrough := func(tag string) func() Bolt {
		return func() Bolt {
			return &funcBolt{fn: func(tp *Tuple, out *BoltCollector) error {
				out.Emit(Values{tag, tp.Values[1]})
				return nil
			}}
		}
	}
	b.SetBolt("left", passThrough("left"), 1).FieldsGrouping("s", "k").OutputFields("tag", "i")
	b.SetBolt("right", passThrough("right"), 1).FieldsGrouping("s", "k").OutputFields("tag", "i")
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{fn: func(tp *Tuple, _ *BoltCollector) error {
			mu.Lock()
			order = append(order, fmt.Sprintf("%v/%v", tp.Values[0], tp.Values[1]))
			mu.Unlock()
			return nil
		}}
	}, 1).FieldsGrouping("left", "i").FieldsGrouping("right", "i")
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return topo, &order
}

// TestSynchronousDeterministicOrder runs the diamond twice and demands the
// sink sees the exact same execution order — the property the simulation
// harness's replay-determinism scenario is built on.
func TestSynchronousDeterministicOrder(t *testing.T) {
	run := func() []string {
		topo, order := buildSyncDiamond(t, 50, true)
		if err := topo.Run(context.Background()); err != nil {
			t.Fatalf("run: %v", err)
		}
		return *order
	}
	first, second := run(), run()
	if len(first) != 100 { // 50 spout tuples × 2 branches
		t.Fatalf("sink executed %d tuples, want 100", len(first))
	}
	if len(first) != len(second) {
		t.Fatalf("runs executed different tuple counts: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("execution order diverged at %d: %q vs %q", i, first[i], second[i])
		}
	}
}

// TestSynchronousAccounting checks the synchronous scheduler keeps the same
// acker conservation law as the concurrent one: every tracked tuple acked or
// failed exactly once, nothing unresolved at shutdown.
func TestSynchronousAccounting(t *testing.T) {
	const n = 120
	errBoom := errors.New("boom")
	b := NewBuilder("sync-acct").SetSynchronous(true).SetMaxSpoutPending(1)
	b.SetSpout("s", func() Spout {
		return &sliceSpout{values: intValues(n), tracked: true}
	}, 1).OutputFields("k", "i")
	b.SetBolt("work", func() Bolt {
		return &funcBolt{fn: func(tp *Tuple, _ *BoltCollector) error {
			if tp.Values[1].(int)%10 == 3 {
				return errBoom
			}
			return nil
		}}
	}, 3).FieldsGrouping("s", "k")
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := topo.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	m, err := topo.MetricsFor("s")
	if err != nil {
		t.Fatal(err)
	}
	if m.Emitted != n {
		t.Errorf("emitted %d, want %d", m.Emitted, n)
	}
	if m.Acked+m.FailedTrees != n {
		t.Errorf("acked %d + failed %d != emitted %d", m.Acked, m.FailedTrees, n)
	}
	if m.FailedTrees == 0 {
		t.Error("no trees failed — the failing bolt never fired")
	}
	if got := topo.UnresolvedTrees(); got != 0 {
		t.Errorf("%d unresolved trees after synchronous run, want 0", got)
	}
}

// TestSynchronousMatchesConcurrentTotals runs the same definition under both
// schedulers and compares totals (order may differ; conservation must not).
func TestSynchronousMatchesConcurrentTotals(t *testing.T) {
	build := func(sync bool) *Topology {
		b := NewBuilder("modes").SetSynchronous(sync)
		b.SetSpout("s", func() Spout {
			return &sliceSpout{values: intValues(80), tracked: true}
		}, 1).OutputFields("k", "i")
		b.SetBolt("fan", func() Bolt {
			return &funcBolt{fn: func(tp *Tuple, out *BoltCollector) error {
				out.Emit(Values{tp.Values[0], tp.Values[1]})
				out.Emit(Values{tp.Values[0], tp.Values[1]})
				return nil
			}}
		}, 2).FieldsGrouping("s", "k").OutputFields("k", "i")
		b.SetBolt("sink", func() Bolt {
			return &funcBolt{fn: func(*Tuple, *BoltCollector) error { return nil }}
		}, 2).FieldsGrouping("fan", "k")
		topo, err := b.Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return topo
	}
	totals := func(topo *Topology) (spout, sink MetricsSnapshot) {
		if err := topo.Run(context.Background()); err != nil {
			t.Fatalf("run: %v", err)
		}
		s, err := topo.MetricsFor("s")
		if err != nil {
			t.Fatal(err)
		}
		k, err := topo.MetricsFor("sink")
		if err != nil {
			t.Fatal(err)
		}
		return s, k
	}
	syncSpout, syncSink := totals(build(true))
	asyncSpout, asyncSink := totals(build(false))
	if syncSpout.Emitted != asyncSpout.Emitted || syncSpout.Acked != asyncSpout.Acked {
		t.Errorf("spout totals differ: sync {emitted %d acked %d}, concurrent {emitted %d acked %d}",
			syncSpout.Emitted, syncSpout.Acked, asyncSpout.Emitted, asyncSpout.Acked)
	}
	if syncSink.Executed != asyncSink.Executed {
		t.Errorf("sink executed %d under sync, %d under concurrent", syncSink.Executed, asyncSink.Executed)
	}
}
