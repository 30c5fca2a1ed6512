package storm

import (
	"context"
	"errors"
	"testing"
	"time"
)

var errSynthetic = errors.New("synthetic failure")

// buildTrackedChain returns a one-spout, one-bolt topology that emits n
// tracked tuples.
func buildTrackedChain(n int, boltFn func(*Tuple, *BoltCollector) error) *Topology {
	b := NewBuilder("t")
	b.SetSpout("s", func() Spout { return &sliceSpout{values: intValues(n), tracked: true} }, 1).
		OutputFields("k", "n")
	b.SetBolt("sink", func() Bolt { return &funcBolt{fn: boltFn} }, 2).FieldsGrouping("s", "k")
	topo, err := b.Build()
	if err != nil {
		panic(err)
	}
	return topo
}

// A tuple failed (or acked) after the topology has shut down must be a
// no-op: the old acker closed its input channel on stop, so a straggler
// bolt — e.g. one blocked in a slow store write that fails after Run
// returns — would panic the process with "send on closed channel".
func TestAckerFailAfterShutdownDoesNotPanicOrLeak(t *testing.T) {
	topo := buildTrackedChain(10, func(*Tuple, *BoltCollector) error { return nil })
	if got := topo.UnresolvedTrees(); got != -1 {
		t.Errorf("UnresolvedTrees before Run = %d, want -1", got)
	}
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Straggler traffic after shutdown: a fail for a resolved root, an ack
	// for a resolved root, and a fail for a root the acker never saw. None
	// may panic, and none may create a pending entry.
	done := make(chan struct{})
	go func() { // vidlint:detached test goroutine; joined via done channel below
		defer close(done)
		topo.acker.fail(3)
		topo.acker.ack(3, 42)
		topo.acker.fail(9999)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("straggler ack/fail blocked after shutdown")
	}
	if got := topo.UnresolvedTrees(); got != 0 {
		t.Errorf("UnresolvedTrees after straggler traffic = %d, want 0", got)
	}
}

// Conservation: with a mix of acked and failed trees, every tracked tuple
// resolves exactly once and the acker retains no entries at shutdown.
func TestAckerConservationWithFailures(t *testing.T) {
	const n = 200
	topo := buildTrackedChain(n, func(tp *Tuple, _ *BoltCollector) error {
		if tp.Values[1].(int)%7 == 0 {
			return errSynthetic
		}
		return nil
	})
	m := spoutMetrics(t, topo)
	if got := m.Acked + m.FailedTrees; got != n {
		t.Errorf("acked+failed = %d, want %d (each tree resolves exactly once)", got, n)
	}
	if got := topo.UnresolvedTrees(); got != 0 {
		t.Errorf("UnresolvedTrees = %d, want 0", got)
	}
}

// Only a failed tree can still receive messages (acks from its other
// branches), so only failed roots leave a tombstone: a completed tree's XOR
// reached zero because every delivery in it was acked.
func TestAckerTombstonesOnlyFailedTrees(t *testing.T) {
	const n = 200
	for _, failEvery := range []int{0, 7} {
		topo := buildTrackedChain(n, func(tp *Tuple, _ *BoltCollector) error {
			if failEvery > 0 && tp.Values[1].(int)%failEvery == 0 {
				return errSynthetic
			}
			return nil
		})
		m := spoutMetrics(t, topo)
		// Run has returned, so the acker goroutine has exited and its maps
		// are safe to read.
		if got := len(topo.acker.resolved); uint64(got) != m.FailedTrees {
			t.Errorf("failEvery %d: %d tombstones after %d acked and %d failed trees, want %d",
				failEvery, got, m.Acked, m.FailedTrees, m.FailedTrees)
		}
	}
}
