// Package storm is a from-scratch, single-process reimplementation of the
// programming model of Apache Storm, the distributed real-time computation
// system the paper deploys on (§5.1): topologies of spouts and bolts
// connected by streams of tuples, with configurable parallelism and stream
// groupings.
//
// The semantics the recommendation topology depends on are reproduced
// faithfully:
//
//   - Components execute as parallel tasks (goroutines) with bounded input
//     queues, so backpressure propagates upstream just as bounded Storm
//     executor queues do.
//   - Fields grouping routes tuples with equal values of the grouping
//     fields to the same task. This is the property §5.1's correctness
//     argument rests on: grouping vector updates by their storage key makes
//     each key single-writer, so "no write conflict would happen".
//   - An acker tracks each tuple tree with the XOR trick Storm uses, giving
//     at-least-once semantics: when every descendant of a spout tuple is
//     acked the spout's Ack hook fires; a failed bolt execution fails the
//     whole tree immediately.
//
// Distribution across machines is out of scope (parallelism is real,
// placement is simulated); see DESIGN.md §3.
package storm

import "fmt"

// Values is the payload of a tuple: one value per declared output field.
type Values []any

// Tuple is a unit of stream data flowing between components. Field names
// come from the producing component's declared output schema.
type Tuple struct {
	// Values holds the field values, parallel to the producer's schema.
	// The slice is shared between every consumer the tuple fans out to
	// (as in Storm itself): bolts must treat it as read-only.
	Values Values
	// Source is the component that emitted the tuple.
	Source string

	schema []string
	root   int64  // id of the spout tuple this descends from (0 = untracked)
	edge   uint64 // this delivery's edge id in the ack tree
}

// Field returns the value of the named field.
func (t *Tuple) Field(name string) (any, error) {
	for i, f := range t.schema {
		if f == name {
			return t.Values[i], nil
		}
	}
	return nil, fmt.Errorf("storm: tuple from %q has no field %q (schema %v)", t.Source, name, t.schema)
}

// Get returns the value of the named field as a T. It errors if the field is
// absent or not a T — tuple schemas are declared statically, so a type
// mismatch is a wiring bug worth surfacing loudly.
func Get[T any](t *Tuple, name string) (T, error) {
	var zero T
	v, err := t.Field(name)
	if err != nil {
		return zero, err
	}
	x, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("storm: field %q is %T, not %T", name, v, zero)
	}
	return x, nil
}

// Schema returns the field names of the tuple.
func (t *Tuple) Schema() []string { return t.schema }

// groupingKind enumerates how a subscription routes tuples to tasks.
type groupingKind uint8

const (
	// groupShuffle distributes tuples round-robin across tasks.
	groupShuffle groupingKind = iota
	// groupFields routes by hash of the named fields: equal keys, same task.
	groupFields
	// groupAll replicates every tuple to every task.
	groupAll
	// groupGlobal routes every tuple to task 0.
	groupGlobal
)

func (g groupingKind) String() string {
	switch g {
	case groupShuffle:
		return "shuffle"
	case groupFields:
		return "fields"
	case groupAll:
		return "all"
	case groupGlobal:
		return "global"
	default:
		return fmt.Sprintf("grouping(%d)", uint8(g))
	}
}
