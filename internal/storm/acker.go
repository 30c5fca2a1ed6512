package storm

import (
	"sync"
	"sync/atomic"
)

// The acker implements Storm's tuple-tree tracking with the XOR trick: every
// delivery of a tracked tuple gets a random 64-bit edge id; the spout
// registers the XOR of its initial deliveries, and every bolt ack XORs in
// the consumed edge id together with the edge ids of the tuples it emitted
// while processing it. Each edge id therefore enters the accumulated value
// exactly twice — once when created, once when consumed — so the value
// returns to zero exactly when every tuple in the tree has been processed,
// regardless of message ordering.

type ackKind uint8

const (
	ackInit ackKind = iota
	ackDelta
	ackFail
)

type ackMsg struct {
	kind   ackKind
	root   int64
	xor    uint64
	origin *task // set on init
}

type ackEntry struct {
	xor     uint64
	origin  *task
	hasInit bool
	failed  bool
}

type acker struct {
	in      chan ackMsg
	quit    chan struct{}
	done    chan struct{}
	nextID  atomic.Int64
	entries map[int64]*ackEntry
	// resolved remembers roots that failed, so straggler acks from the
	// rest of a failed tree are dropped instead of resurrecting the entry.
	// A completed tree needs no tombstone: its XOR reached zero because
	// every delivery in it was acked, so no message for it can follow.
	resolved map[int64]struct{}
}

func newAcker() *acker {
	return &acker{
		in:       make(chan ackMsg, 4096),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		entries:  make(map[int64]*ackEntry),
		resolved: make(map[int64]struct{}),
	}
}

func (a *acker) start() {
	go func() {
		defer close(a.done)
		for {
			select {
			case msg := <-a.in:
				a.handle(msg)
			case <-a.quit:
				// Drain what was already enqueued, then exit. The in
				// channel is never closed, so stragglers arriving after
				// shutdown are dropped by send instead of panicking.
				for {
					select {
					case msg := <-a.in:
						a.handle(msg)
					default:
						return
					}
				}
			}
		}
	}()
}

func (a *acker) stop() {
	close(a.quit)
	<-a.done
}

// send delivers a message to the acker goroutine, or drops it once the acker
// has shut down. A tuple failed or acked after Topology.Run returned must be
// a no-op, not a panic: the tree's fate was already decided at shutdown.
func (a *acker) send(m ackMsg) {
	select {
	case a.in <- m:
	case <-a.done:
	}
}

// newRoot allocates a fresh root id for a spout task's tracked emission.
// Ids start at 1; 0 marks untracked tuples.
func (a *acker) newRoot() int64 { return a.nextID.Add(1) }

// initWithOrigin registers a tuple tree. EmitTracked routes first
// (deliveries may ack before init arrives — XOR is order-independent), then
// sends init carrying the origin task so the acker can notify completion.
func (a *acker) initWithOrigin(root int64, xor uint64, origin *task) {
	a.send(ackMsg{kind: ackInit, root: root, xor: xor, origin: origin})
}

func (a *acker) ack(root int64, xor uint64) {
	a.send(ackMsg{kind: ackDelta, root: root, xor: xor})
}

func (a *acker) fail(root int64) {
	a.send(ackMsg{kind: ackFail, root: root})
}

func (a *acker) handle(msg ackMsg) {
	if _, dead := a.resolved[msg.root]; dead {
		return
	}
	e := a.entries[msg.root]
	if e == nil {
		e = &ackEntry{}
		a.entries[msg.root] = e
	}
	switch msg.kind {
	case ackInit:
		e.hasInit = true
		e.origin = msg.origin
		e.xor ^= msg.xor
	case ackDelta:
		e.xor ^= msg.xor
	case ackFail:
		e.failed = true
	}
	if !e.hasInit {
		return // can't resolve until the spout's init arrives
	}
	if e.failed {
		a.finish(msg.root, e, true)
		return
	}
	if e.xor == 0 {
		a.finish(msg.root, e, false)
	}
}

func (a *acker) finish(root int64, e *ackEntry, failed bool) {
	delete(a.entries, root)
	if failed {
		a.resolved[root] = struct{}{}
	}
	if e.origin != nil {
		e.origin.notices.put(ackNotice{root: root, failed: failed})
	}
}

// notifier is an unbounded queue of ack notices with blocking receive. The
// acker must never block delivering a notice (a blocked acker would deadlock
// the ack channel against backpressured bolts), so spout-task notification
// buffers here instead of in a bounded channel.
type notifier struct {
	mu    sync.Mutex
	cond  *sync.Cond  // set once at construction, immutable afterwards
	queue []ackNotice // guarded by mu
}

func newNotifier() *notifier {
	n := &notifier{}
	n.cond = sync.NewCond(&n.mu)
	return n
}

func (n *notifier) put(v ackNotice) {
	n.mu.Lock()
	n.queue = append(n.queue, v)
	n.mu.Unlock()
	n.cond.Signal()
}

// get dequeues one notice. With block set it waits for one; otherwise it
// returns ok=false immediately when empty.
func (n *notifier) get(block bool) (ackNotice, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for len(n.queue) == 0 {
		if !block {
			return ackNotice{}, false
		}
		n.cond.Wait()
	}
	v := n.queue[0]
	n.queue = n.queue[1:]
	return v, true
}
