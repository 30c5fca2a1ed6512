package storm

import (
	"context"
	"fmt"
)

// Spout produces the input streams of a topology. One Spout instance is
// created per task by the factory passed to SetSpout.
type Spout interface {
	// Open is called once before the first NextTuple, with the run context
	// passed to Topology.Run and the collector to emit through.
	Open(ctx context.Context, out *SpoutCollector) error
	// NextTuple emits zero or more tuples through the collector and
	// reports whether more input may follow. Returning false ends the
	// task; the runtime then drains downstream components. NextTuple is
	// called from a single goroutine.
	NextTuple() (more bool, err error)
}

// Bolt consumes input streams and optionally emits new ones. One Bolt
// instance is created per task by the factory passed to SetBolt.
type Bolt interface {
	// Prepare is called once before the first Execute, with the run
	// context passed to Topology.Run. Bolts must thread it into every
	// blocking call (store reads/writes, network round trips) so that
	// cancelling the run cannot leave a task wedged on a dead storage tier
	// — the ctxcheck lint pass enforces this in the serving packages.
	Prepare(ctx context.Context, out *BoltCollector) error
	// Execute processes one input tuple. Emitting through the collector
	// anchors new tuples to the input's ack tree. Returning an error
	// fails the input's tuple tree (it counts in the spout's FailedTrees
	// and is not replayed) but does not stop the topology. Execute is
	// called from a single goroutine.
	Execute(t *Tuple) error
}

// subscription connects a consumer component to one producer stream,
// fields-grouped on the named producer fields.
type subscription struct {
	producer string
	fields   []string
}

type componentDef struct {
	name        string
	parallelism int
	outFields   []string
	spoutFn     func() Spout
	boltFn      func() Bolt
	inputs      []subscription
}

// Builder accumulates a topology definition: components, parallelism,
// output schemas and fields groupings. It mirrors Storm's TopologyBuilder.
type Builder struct {
	name        string
	components  map[string]*componentDef
	order       []string // declaration order, for deterministic setup
	queueSize   int
	maxPending  int
	seed        uint64
	synchronous bool
}

// NewBuilder returns an empty topology definition with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:       name,
		components: make(map[string]*componentDef),
		queueSize:  1024,
		seed:       0x9e3779b97f4a7c15, // fixed default: builds are reproducible without SetSeed
	}
}

// SetSeed sets the seed for the per-task edge-id generators. Two topologies
// built from identical definitions with the same seed assign identical edge
// ids, which the simulation harness relies on for replay determinism.
func (b *Builder) SetSeed(seed uint64) *Builder {
	b.seed = seed
	return b
}

// SetSynchronous selects the single-goroutine deterministic scheduler: Run
// executes the whole topology on the caller's goroutine, draining each spout
// tuple's full tree (FIFO) before the next emission. Routing, metrics, and
// acker accounting are unchanged — only concurrency is removed, making
// execution order (and therefore every store write) a pure function of the
// spout stream. The simulation harness's replay-determinism scenario runs in
// this mode; the concurrent scheduler cannot make that guarantee because
// sibling bolts race on shared state even at parallelism one.
func (b *Builder) SetSynchronous(sync bool) *Builder {
	b.synchronous = sync
	return b
}

// SetQueueSize sets the per-task input queue capacity (default 1024).
// Smaller queues propagate backpressure sooner.
func (b *Builder) SetQueueSize(n int) *Builder {
	if n > 0 {
		b.queueSize = n
	}
	return b
}

// SetMaxSpoutPending caps the number of unresolved tracked tuple trees per
// spout task (Storm's topology.max.spout.pending): a spout with the cap
// reached waits for acks before emitting more, bounding in-flight work.
// Zero (the default) means unbounded. Only EmitTracked counts against the
// cap.
func (b *Builder) SetMaxSpoutPending(n int) *Builder {
	if n >= 0 {
		b.maxPending = n
	}
	return b
}

// SpoutDecl configures a spout being added to the topology.
type SpoutDecl struct{ def *componentDef }

// BoltDecl configures a bolt being added to the topology.
type BoltDecl struct{ def *componentDef }

// SetSpout registers a spout component. factory is invoked once per task.
func (b *Builder) SetSpout(name string, factory func() Spout, parallelism int) *SpoutDecl {
	def := b.add(name, parallelism)
	def.spoutFn = factory
	return &SpoutDecl{def: def}
}

// SetBolt registers a bolt component. factory is invoked once per task.
func (b *Builder) SetBolt(name string, factory func() Bolt, parallelism int) *BoltDecl {
	def := b.add(name, parallelism)
	def.boltFn = factory
	return &BoltDecl{def: def}
}

func (b *Builder) add(name string, parallelism int) *componentDef {
	if parallelism < 1 {
		parallelism = 1
	}
	def := &componentDef{name: name, parallelism: parallelism}
	if _, dup := b.components[name]; !dup {
		b.order = append(b.order, name)
	}
	b.components[name] = def
	return def
}

// OutputFields declares the spout's tuple schema.
func (s *SpoutDecl) OutputFields(fields ...string) *SpoutDecl {
	s.def.outFields = fields
	return s
}

// OutputFields declares the bolt's tuple schema. Bolts that only store
// results (terminal bolts) can omit it.
func (d *BoltDecl) OutputFields(fields ...string) *BoltDecl {
	d.def.outFields = fields
	return d
}

// FieldsGrouping subscribes the bolt to producer, routing tuples with equal
// values of the named fields to the same task — the single-writer guarantee
// of §5.1.
func (d *BoltDecl) FieldsGrouping(producer string, fields ...string) *BoltDecl {
	d.def.inputs = append(d.def.inputs, subscription{producer: producer, fields: fields})
	return d
}

// validate checks the definition is a well-formed DAG with resolvable
// subscriptions and grouping fields.
func (b *Builder) validate() error {
	if len(b.order) == 0 {
		return fmt.Errorf("storm: topology %q has no components", b.name)
	}
	spouts := 0
	for _, name := range b.order {
		def := b.components[name]
		if def.spoutFn != nil {
			spouts++
			if len(def.inputs) > 0 {
				return fmt.Errorf("storm: spout %q cannot subscribe to streams", name)
			}
			if len(def.outFields) == 0 {
				return fmt.Errorf("storm: spout %q declares no output fields", name)
			}
		}
		for _, sub := range def.inputs {
			producer, ok := b.components[sub.producer]
			if !ok {
				return fmt.Errorf("storm: %q subscribes to unknown component %q", name, sub.producer)
			}
			if len(sub.fields) == 0 {
				return fmt.Errorf("storm: %q fields-grouping on %q names no fields", name, sub.producer)
			}
			for _, f := range sub.fields {
				if fieldIndex(producer.outFields, f) < 0 {
					return fmt.Errorf("storm: %q groups on field %q absent from %q's schema %v",
						name, f, sub.producer, producer.outFields)
				}
			}
		}
		if def.boltFn != nil && len(def.inputs) == 0 {
			return fmt.Errorf("storm: bolt %q has no input subscriptions", name)
		}
	}
	if spouts == 0 {
		return fmt.Errorf("storm: topology %q has no spouts", b.name)
	}
	return b.checkAcyclic()
}

// checkAcyclic rejects cycles: the drain protocol closes input queues in
// producer order and would deadlock on a cyclic topology.
func (b *Builder) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(b.components))
	// consumers[p] = components subscribed to p
	consumers := make(map[string][]string)
	for _, name := range b.order {
		for _, sub := range b.components[name].inputs {
			consumers[sub.producer] = append(consumers[sub.producer], name)
		}
	}
	var visit func(string) error
	visit = func(n string) error {
		color[n] = gray
		for _, next := range consumers[n] {
			switch color[next] {
			case gray:
				return fmt.Errorf("storm: topology %q contains a cycle through %q", b.name, next)
			case white:
				if err := visit(next); err != nil {
					return err
				}
			}
		}
		color[n] = black
		return nil
	}
	for _, name := range b.order {
		if color[name] == white {
			if err := visit(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// fieldIndex returns the position of field in schema, or -1.
func fieldIndex(schema []string, field string) int {
	for i, f := range schema {
		if f == field {
			return i
		}
	}
	return -1
}
