package storm

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Topology is an executable instance of a Builder definition. Build it with
// Builder.Build and run it with Run; a Topology is single-use.
type Topology struct {
	name       string
	maxPending int
	comps      []*component
	byName     map[string]*component
	acker      *acker
	// synchronous selects the single-goroutine deterministic scheduler
	// (see sync.go); syncQ is its FIFO work queue, touched only from the
	// driving goroutine.
	synchronous bool
	syncQ       []syncDelivery

	errMu  sync.Mutex
	errs   []error // guarded by errMu
	ranYet atomic.Bool
}

type component struct {
	def     *componentDef
	tasks   []*task
	metrics Metrics
	// consumers lists the subscriptions of downstream components reading
	// this component's output, resolved at build time.
	consumers []*consumerLink
	// pendingProducers counts upstream tasks still running; when it hits
	// zero the component's input queues close (drain protocol).
	pendingProducers atomic.Int64
}

// consumerLink is one resolved subscription: the consuming component and the
// positions of its grouping fields in the producer's schema.
type consumerLink struct {
	comp   *component
	fields []int
}

type task struct {
	comp  *component
	index int
	in    chan *Tuple
	spout Spout
	bolt  Bolt
	// collector is a bolt task's collector; both schedulers execute
	// through it.
	collector *BoltCollector
	// notices delivers completed/failed root notifications to spout tasks
	// without ever blocking the acker (see notifier).
	notices *notifier
	// edgeRand issues the pseudo-random edge ids for tracked deliveries.
	// Seeded per task at build time so runs with the same Builder seed are
	// reproducible; only touched from the task's own goroutine. Edge ids
	// must stay pseudo-random — sequential ids would let distinct
	// outstanding subsets XOR to zero (1^2^3 == 0) and complete a tree
	// early.
	edgeRand *rand.Rand
	// pendingRoots counts this spout task's unresolved tracked tuples.
	pendingRoots int64
	// dead marks a task whose Open or Prepare failed: a dead spout emits
	// nothing, and deliveries to a dead bolt fail their trees instead of
	// executing, so upstream never blocks and tracked trees still resolve.
	dead bool
}

type ackNotice struct {
	root   int64
	failed bool
}

// Metrics are per-component counters, updated atomically while the topology
// runs.
type Metrics struct {
	// Emitted counts tuples emitted by the component (before fan-out).
	Emitted atomic.Uint64
	// Delivered counts tuple instances enqueued to consumers.
	Delivered atomic.Uint64
	// Executed counts bolt Execute calls.
	Executed atomic.Uint64
	// Failed counts deliveries whose execution failed: Execute returned an
	// error, or the task was dead.
	Failed atomic.Uint64
	// Acked counts spout tuple trees fully processed.
	Acked atomic.Uint64
	// FailedTrees counts spout tuple trees that failed.
	FailedTrees atomic.Uint64
}

// MetricsSnapshot is a point-in-time copy of Metrics.
type MetricsSnapshot struct {
	Emitted, Delivered, Executed, Failed, Acked, FailedTrees uint64
	// QueueDepth is the number of tuples currently buffered across the
	// component's task queues — the backpressure gauge an operator watches
	// to find the bottleneck bolt.
	QueueDepth int
}

// Build validates the definition and instantiates every task.
func (b *Builder) Build() (*Topology, error) {
	if err := b.validate(); err != nil {
		return nil, err
	}
	t := &Topology{
		name:        b.name,
		maxPending:  b.maxPending,
		synchronous: b.synchronous,
		byName:      make(map[string]*component, len(b.order)),
	}
	for _, name := range b.order {
		c := &component{def: b.components[name]}
		t.comps = append(t.comps, c)
		t.byName[name] = c
	}
	// Resolve subscriptions into producer→consumer links and count
	// producers per consumer.
	for _, c := range t.comps {
		for _, sub := range c.def.inputs {
			producer := t.byName[sub.producer]
			link := &consumerLink{comp: c, fields: make([]int, len(sub.fields))}
			for i, f := range sub.fields {
				link.fields[i] = fieldIndex(producer.def.outFields, f)
			}
			producer.consumers = append(producer.consumers, link)
			c.pendingProducers.Add(int64(producer.def.parallelism))
		}
	}
	// Instantiate tasks.
	for ci, c := range t.comps {
		c.tasks = make([]*task, c.def.parallelism)
		for i := range c.tasks {
			tk := &task{comp: c, index: i}
			tk.edgeRand = rand.New(rand.NewPCG(b.seed, uint64(ci)<<32|uint64(i)))
			if c.def.spoutFn != nil {
				tk.spout = c.def.spoutFn()
				tk.notices = newNotifier()
			} else {
				tk.bolt = c.def.boltFn()
				tk.collector = &BoltCollector{topo: t, task: tk}
				tk.in = make(chan *Tuple, b.queueSize)
			}
			c.tasks[i] = tk
		}
	}
	t.acker = newAcker()
	return t, nil
}

// Run executes the topology until every spout is exhausted (NextTuple
// returned false) or ctx is cancelled, then drains all in-flight tuples and
// shuts down cleanly. It returns the combined errors raised by component
// lifecycles; bolt Execute errors fail tuple trees and are counted in
// metrics but do not abort the run.
func (t *Topology) Run(ctx context.Context) error {
	if t.ranYet.Swap(true) {
		return fmt.Errorf("storm: topology %q has already run", t.name)
	}
	t.acker.start()
	if t.synchronous {
		t.runSync(ctx)
	} else {
		var wg sync.WaitGroup
		for _, c := range t.comps {
			for _, tk := range c.tasks {
				wg.Add(1)
				go func(tk *task) {
					defer wg.Done()
					t.runTask(ctx, tk)
				}(tk)
			}
		}
		wg.Wait()
	}
	t.acker.stop()
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return errors.Join(t.errs...)
}

// runTask is one task's goroutine under the concurrent scheduler. A bolt
// task executes its queue until every producer task has finished; its own
// finish then closes its consumers' queues in turn.
func (t *Topology) runTask(ctx context.Context, tk *task) {
	defer t.taskFinished(tk.comp)
	t.open(ctx, tk)
	if tk.spout != nil {
		if !tk.dead {
			t.driveSpout(ctx, tk)
		}
		return
	}
	for tuple := range tk.in {
		t.execute(tk, tuple)
	}
}

// taskFinished implements the drain protocol: when the last producer task of
// a consumer component finishes, that component's input queues close, which
// lets its tasks drain and finish, cascading downstream.
func (t *Topology) taskFinished(c *component) {
	for _, link := range c.consumers {
		if link.comp.pendingProducers.Add(-int64(1)) == 0 {
			for _, tk := range link.comp.tasks {
				close(tk.in)
			}
		}
	}
}

// open runs a task's Open (spout) or Prepare (bolt); a task whose call
// fails is marked dead.
func (t *Topology) open(ctx context.Context, tk *task) {
	var err error
	stage := "prepare"
	if tk.spout != nil {
		stage = "open"
		err = tk.spout.Open(ctx, &SpoutCollector{topo: t, task: tk})
	} else {
		err = tk.bolt.Prepare(ctx, tk.collector)
	}
	if err != nil {
		t.taskErr(tk, stage, err)
		tk.dead = true
	}
}

// taskErr records one task's lifecycle error for Run to return.
func (t *Topology) taskErr(tk *task, stage string, err error) {
	kind := "bolt"
	if tk.spout != nil {
		kind = "spout"
	}
	t.errMu.Lock()
	t.errs = append(t.errs, fmt.Errorf("storm: %s %s[%d] %s: %w", kind, tk.comp.def.name, tk.index, stage, err))
	t.errMu.Unlock()
}

// driveSpout calls NextTuple until the spout is exhausted or fails or ctx is
// cancelled, then lingers until every tracked tree the task emitted
// resolves. Under the synchronous scheduler each call's deliveries execute
// to completion before the next call.
func (t *Topology) driveSpout(ctx context.Context, tk *task) {
	for ctx.Err() == nil {
		tk.drainAcks(false)
		// Max-spout-pending: hold off emitting while too many tracked
		// trees are unresolved. Bolts keep draining (synchronously, they
		// have already run), so the acker always delivers the notice.
		for t.maxPending > 0 && tk.pendingRoots >= int64(t.maxPending) {
			tk.drainAcks(true)
		}
		more, err := tk.spout.NextTuple()
		if t.synchronous {
			t.drainSyncQueue()
		}
		if err != nil {
			t.taskErr(tk, "next", err)
			break
		}
		if !more {
			break
		}
	}
	for tk.pendingRoots > 0 {
		tk.drainAcks(true)
	}
}

// drainAcks counts the spout task's resolved trees on its own goroutine.
// With block set it waits for at least one.
func (tk *task) drainAcks(block bool) {
	for {
		n, ok := tk.notices.get(block)
		if !ok {
			return
		}
		block = false
		tk.pendingRoots--
		if n.failed {
			tk.comp.metrics.FailedTrees.Add(1)
		} else {
			tk.comp.metrics.Acked.Add(1)
		}
	}
}

// execute runs one delivery on a bolt task for either scheduler: Execute,
// count, then ack the tuple's tree or fail it. A dead task fails the tree
// without executing.
func (t *Topology) execute(tk *task, tuple *Tuple) {
	if !tk.dead {
		c := tk.collector
		c.current, c.emittedXor = tuple, 0
		err := tk.bolt.Execute(tuple)
		c.current = nil
		tk.comp.metrics.Executed.Add(1)
		if err == nil {
			if tuple.root != 0 {
				// Ack: XOR of the consumed edge and all anchored emissions.
				t.acker.ack(tuple.root, tuple.edge^c.emittedXor)
			}
			return
		}
	}
	tk.comp.metrics.Failed.Add(1)
	if tuple.root != 0 {
		t.acker.fail(tuple.root)
	}
}

// route fans an emission out to every consumer of the producing component.
// It returns the XOR of the edge ids assigned to tracked deliveries.
func (t *Topology) route(tk *task, values Values, root int64) uint64 {
	c := tk.comp
	c.metrics.Emitted.Add(1)
	var xor uint64
	for _, link := range c.consumers {
		tuple := &Tuple{
			Values: values,
			Source: c.def.name,
			schema: c.def.outFields,
			root:   root,
		}
		if root != 0 {
			tuple.edge = tk.edgeRand.Uint64() | 1 // never 0: 0 means untracked
			xor ^= tuple.edge
		}
		target := link.target(values)
		if t.synchronous {
			t.syncQ = append(t.syncQ, syncDelivery{task: target, tuple: tuple})
		} else {
			target.in <- tuple
		}
		c.metrics.Delivered.Add(1)
	}
	return xor
}

// target picks the task that receives a delivery: the FNV-1a hash of the
// grouping fields' values modulo the task count, so equal keys always reach
// the same task.
func (l *consumerLink) target(values Values) *task {
	h := fnv.New64a()
	for _, i := range l.fields {
		hashValue(h, values[i])
	}
	return l.comp.tasks[h.Sum64()%uint64(len(l.comp.tasks))]
}

// hashValue feeds one grouping value to h. string and int64 are the field
// types the recommendation topology groups on; anything else hashes its
// %v form.
func hashValue(h hash.Hash, v any) {
	switch x := v.(type) {
	case string:
		h.Write([]byte(x))
	case int64:
		var b [8]byte
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	default:
		fmt.Fprintf(h, "%v", x)
	}
}

// MetricsFor returns a snapshot of the named component's counters.
func (t *Topology) MetricsFor(component string) (MetricsSnapshot, error) {
	c, ok := t.byName[component]
	if !ok {
		return MetricsSnapshot{}, fmt.Errorf("storm: unknown component %q", component)
	}
	m := &c.metrics
	snap := MetricsSnapshot{
		Emitted:     m.Emitted.Load(),
		Delivered:   m.Delivered.Load(),
		Executed:    m.Executed.Load(),
		Failed:      m.Failed.Load(),
		Acked:       m.Acked.Load(),
		FailedTrees: m.FailedTrees.Load(),
	}
	for _, tk := range c.tasks {
		if tk.in != nil {
			snap.QueueDepth += len(tk.in)
		}
	}
	return snap, nil
}

// UnresolvedTrees reports the number of tracked tuple trees that were
// neither acked nor failed by the time the topology shut down. It returns -1
// while the topology is still running (or has not run); after Run returns,
// a conservation-clean run reports 0.
func (t *Topology) UnresolvedTrees() int {
	select {
	case <-t.acker.done:
		return len(t.acker.entries)
	default:
		return -1
	}
}

// Components returns the component names in declaration order.
func (t *Topology) Components() []string {
	out := make([]string, len(t.comps))
	for i, c := range t.comps {
		out[i] = c.def.name
	}
	return out
}

// SpoutCollector emits tuples on behalf of one spout task.
type SpoutCollector struct {
	topo *Topology
	task *task
}

// Emit sends an untracked tuple downstream: no ack tree is built, so the
// tuple counts in neither Acked nor FailedTrees. This is the
// high-throughput mode.
func (c *SpoutCollector) Emit(values Values) {
	c.topo.route(c.task, values, 0)
}

// EmitTracked sends a tuple with tree tracking: once every descendant tuple
// has been processed the tree counts in the spout's Acked metric; if any
// bolt execution on the tree fails it counts in FailedTrees instead. A
// failed tree is not replayed.
func (c *SpoutCollector) EmitTracked(values Values) {
	root := c.topo.acker.newRoot()
	c.task.pendingRoots++
	xor := c.topo.route(c.task, values, root)
	c.topo.acker.initWithOrigin(root, xor, c.task)
}

// BoltCollector emits tuples on behalf of one bolt task. Tuples emitted
// during Execute are anchored to the input tuple's ack tree.
type BoltCollector struct {
	topo       *Topology
	task       *task
	current    *Tuple
	emittedXor uint64
}

// Emit sends a tuple downstream, anchored to the tuple currently being
// executed (if any, and if that tuple is tracked).
func (c *BoltCollector) Emit(values Values) {
	root := int64(0)
	if c.current != nil {
		root = c.current.root
	}
	xor := c.topo.route(c.task, values, root)
	c.emittedXor ^= xor
}
