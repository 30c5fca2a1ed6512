package storm

import "context"

// Synchronous execution mode: the whole topology runs on the caller's
// goroutine, processing deliveries from a FIFO work queue instead of
// per-task channels. Routing, metrics, acker accounting and the per-tuple
// body (execute) are shared with the concurrent engine — only the scheduler
// changes: every tuple's execution order is a pure function of the spout
// stream, which is what the simulation harness's replay-determinism oracle
// (same seed ⇒ byte-identical state) requires. The concurrent engine cannot
// promise this: even with one task per component, sibling bolts subscribed
// to the same stream race on shared store keys (e.g. the history append one
// bolt performs against the history read its sibling performs for the same
// action).

// syncDelivery is one queued tuple delivery in synchronous mode.
type syncDelivery struct {
	task  *task
	tuple *Tuple
}

// runSync drives the topology to completion on a single goroutine. The
// acker still runs on its own goroutine, but it only observes the XOR
// stream — it never influences execution order, so determinism is
// unaffected.
func (t *Topology) runSync(ctx context.Context) {
	// Open every task in declaration order before any spout emits.
	for _, c := range t.comps {
		for _, tk := range c.tasks {
			t.open(ctx, tk)
		}
	}
	// Drive the spouts one after another; driveSpout drains the work queue
	// after every emission, so each spout tuple's entire tree executes
	// before the next NextTuple call.
	for _, c := range t.comps {
		for _, tk := range c.tasks {
			if tk.spout != nil && !tk.dead {
				t.driveSpout(ctx, tk)
			}
		}
	}
}

// drainSyncQueue executes queued deliveries FIFO until the queue is empty.
// Executions may enqueue further deliveries; they run in enqueue order.
func (t *Topology) drainSyncQueue() {
	for len(t.syncQ) > 0 {
		d := t.syncQ[0]
		t.syncQ = t.syncQ[1:]
		t.execute(d.task, d.tuple)
	}
}
