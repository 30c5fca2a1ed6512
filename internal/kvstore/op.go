package kvstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"
)

// OpKind names one of the writes a store can execute itself.
type OpKind uint8

// The op kinds. Each rewrite is a pure function of the stored bytes, so a
// store can run it where the bytes live: under Local's shard lock, on a
// shard group's primary, or on the far side of the network client.
const (
	// OpSet stores Val under Key.
	OpSet OpKind = iota + 1
	// OpSimilar rewrites a similar-video table (simtable): every entry is
	// decayed to Ts under half-life HalfLife, entries below Floor drop out,
	// then ID is set to Score — or removed, when Score is below Floor. The
	// list keeps at most Limit entries.
	OpSimilar
	// OpHot rewrites a hot list (demographic): every counter is decayed to
	// Ts under HalfLife, entries below Floor drop out, then Score is added
	// to ID's counter. The list keeps at most Limit entries.
	OpHot
	// OpHistory rewrites a behaviour history (history): ID moves to the
	// front stamped Ts, the rest keep their order, at most Limit in all.
	OpHistory
	// OpMeanFold folds one rating, Score, into the running global mean
	// record (core): the stored (sum, n) becomes (sum+Score, n+1).
	OpMeanFold
)

// maxOpLimit caps an op's Limit. A list op's work grows with its limit, so
// the server refuses a frame whose limit would make one op arbitrarily
// expensive; the lists in use keep 50 to 200 entries.
const maxOpLimit = 4096

// Op is one serializable write: a plain Set, or one of the four record
// rewrites the write path performs. The rewrite's arguments travel instead
// of the record, so the store applies it to whatever it holds, atomically
// with respect to other writers of the key, in one round trip.
type Op struct {
	Kind     OpKind
	Key      string
	Val      []byte        // OpSet; not to be modified once the op is applied
	ID       string        // the list entry a rewrite changes
	Score    float64       // OpSimilar score, OpHot weight, OpMeanFold rating
	Ts       time.Time     // the action's time (list rewrites)
	Limit    int           // list bound (list rewrites)
	HalfLife time.Duration // decay half-life (OpSimilar, OpHot)
	Floor    float64       // score floor (OpSimilar, OpHot)
	// Want asks for the value the op leaves behind (Result): a client that
	// holds a copy of the record refreshes it instead of dropping it.
	Want bool

	result []byte // the value left behind, for a Want op that was applied
}

// Result returns the value a Want op left behind in the store once Apply has
// applied it, nil otherwise. The caller may keep it but must not modify it.
func (o *Op) Result() []byte { return o.result }

// Damp is the decay factor 2^(−age/halfLife) of a score last updated age
// ago: 1 for a non-positive age, 0 for a non-positive half-life (a config
// that skipped validation forgets everything rather than producing NaN).
func Damp(age, halfLife time.Duration) float64 {
	if halfLife <= 0 {
		return 0
	}
	if age <= 0 {
		return 1
	}
	// Both operands are positive, so the exponent is finite and negative and
	// Exp2 lands in (0, 1).
	return math.Exp2(-float64(age) / float64(halfLife))
}

// validate checks an op that arrived from outside the process: a known kind,
// a key, a limit in (0, maxOpLimit], and finite numbers.
func (o *Op) validate() error {
	if o.Key == "" {
		return fmt.Errorf("kvstore: op kind %d has an empty key", o.Kind)
	}
	switch o.Kind {
	case OpSet:
		return nil
	case OpMeanFold:
		if !finite(o.Score) {
			return fmt.Errorf("kvstore: mean fold of %q has non-finite rating %v", o.Key, o.Score)
		}
		return nil
	case OpSimilar, OpHot, OpHistory:
	default:
		return fmt.Errorf("kvstore: unknown op kind %d", o.Kind)
	}
	if o.Limit <= 0 || o.Limit > maxOpLimit {
		return fmt.Errorf("kvstore: op on %q has limit %d outside (0, %d]", o.Key, o.Limit, maxOpLimit)
	}
	if o.Kind == OpHistory {
		return nil
	}
	if !finite(o.Score) || !finite(o.Floor) {
		return fmt.Errorf("kvstore: op on %q has non-finite score %v or floor %v", o.Key, o.Score, o.Floor)
	}
	if o.HalfLife <= 0 {
		return fmt.Errorf("kvstore: op on %q has non-positive half-life %v", o.Key, o.HalfLife)
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Apply is the op as a pure record transform, the form Store.Update takes:
// it returns the value to store given the current one, reading cur but never
// modifying or retaining it, and returns the same output for the same input
// however often it runs. A list record that does not parse starts over
// empty. An op of unknown kind, or a list op without a positive limit,
// leaves the value as it is.
func (o *Op) Apply(cur []byte, exists bool) ([]byte, bool) {
	switch o.Kind {
	case OpSet:
		return o.Val, true
	case OpMeanFold:
		return o.foldMean(cur, exists), true
	}
	if o.Limit <= 0 {
		return cur, exists
	}
	switch o.Kind {
	case OpSimilar:
		return o.rewriteSimilar(cur, exists), true
	case OpHot:
		return o.rewriteHot(cur, exists), true
	case OpHistory:
		return o.rewriteHistory(cur, exists), true
	}
	return cur, exists
}

// applyWant is Apply recording the output of a Want op as its Result.
func (o *Op) applyWant(cur []byte, exists bool) ([]byte, bool) {
	next, keep := o.Apply(cur, exists)
	if o.Want && keep {
		o.result = next
	}
	return next, keep
}

// rewriteSimilar is OpSimilar: one pass loads the list off cur with every
// score decayed to Ts, the pair's entry is set or removed, and the record is
// encoded once. A negative age (an out-of-order action) leaves scores
// unscaled, and a list that parses keeps its later clock.
func (o *Op) rewriteSimilar(cur []byte, ok bool) []byte {
	list := AcquireEntryList(o.Limit)
	defer list.Release()
	updatedAt := o.Ts
	if ok && len(cur) >= 8 {
		prev := time.UnixMilli(int64(binary.LittleEndian.Uint64(cur)))
		if list.Load(cur[8:], Damp(o.Ts.Sub(prev), o.HalfLife), o.Floor) == nil && o.Ts.Before(prev) {
			updatedAt = prev
		}
	}
	if o.Score >= o.Floor {
		list.Update(o.ID, o.Score)
	} else {
		list.Remove(o.ID)
	}
	return list.EncodeClocked(updatedAt.UnixMilli())
}

// rewriteHot is OpHot: one pass loads the list off cur with every counter
// decayed to Ts, the weight is added to the video's decayed counter, and the
// record is encoded once. A list that does not parse restarts empty; the
// clock before it is kept all the same.
func (o *Op) rewriteHot(cur []byte, ok bool) []byte {
	list := AcquireEntryList(o.Limit)
	defer list.Release()
	updatedAt := o.Ts
	if ok && len(cur) >= 8 {
		prev := time.UnixMilli(int64(binary.LittleEndian.Uint64(cur)))
		if o.Ts.Before(prev) {
			updatedAt = prev
		}
		_ = list.Load(cur[8:], Damp(o.Ts.Sub(prev), o.HalfLife), o.Floor) // a rejected list is an empty one
	}
	list.Add(o.ID, o.Score)
	return list.EncodeClocked(updatedAt.UnixMilli())
}

// rewriteHistory is OpHistory. Histories are entry lists with ID = video and
// Score = unix milliseconds. It walks cur twice without decoding it: once to
// validate it and size the result, once to copy the entries that stay behind
// the new one, timestamps as whole milliseconds.
func (o *Op) rewriteHistory(cur []byte, ok bool) []byte {
	var idBuf [64]byte
	id := append(idBuf[:0], o.ID...) // compared as bytes; an id longer than this spills to the heap, no more
	kept, size := 0, 0
	if ok {
		kept, size = historySurvivors(cur, id, o.Limit)
	}
	size += UvarintSize(uint64(kept+1)) + EntrySize(len(id))
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(kept+1))
	buf = AppendEntry(buf, id, float64(o.Ts.UnixMilli()))
	c, _ := NewEntryCursor(cur) // kept > 0 only if historySurvivors walked all of cur without an error
	for kept > 0 {
		e, _, _ := c.Next() // as above, and kept more entries are to come
		if bytes.Equal(e.ID, id) {
			continue
		}
		buf = AppendEntry(buf, e.ID, float64(int64(e.Score)))
		kept--
	}
	return buf
}

// historySurvivors counts the entries of an encoded history that a new event
// for videoID leaves in place — every other video's, in order, as far as the
// limit has room behind the new event — and sums their encoded size. A
// corrupt record has none: it is dropped and rebuilt; histories are advisory
// state, not a ledger.
func historySurvivors(cur, videoID []byte, limit int) (kept, size int) {
	c, err := NewEntryCursor(cur)
	if err != nil {
		return 0, 0
	}
	for {
		e, ok, err := c.Next()
		if err != nil {
			return 0, 0
		}
		if !ok {
			return kept, size
		}
		if kept < limit-1 && !bytes.Equal(e.ID, videoID) {
			kept++
			size += EntrySize(len(e.ID))
		}
	}
}

// foldMean is OpMeanFold over the EncodeFloats form of (sum, n). A record of
// any other shape restarts the mean from this rating.
func (o *Op) foldMean(cur []byte, ok bool) []byte {
	sum, n := 0.0, 0.0
	if ok && len(cur) == 16 {
		sum = math.Float64frombits(binary.LittleEndian.Uint64(cur))
		n = math.Float64frombits(binary.LittleEndian.Uint64(cur[8:]))
	}
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(sum+o.Score))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(n+1))
	return buf
}

// Applier is implemented by a store that takes a batch of ops whole: the
// network client sends it as one frame, and the decorators in front of a
// client (Resilient, Faulty, objcache's invalidating wrapper) pass it
// through. It is deliberately not part of Store: Local and every other store
// run a batch as one call per op (see Apply).
type Applier interface {
	// ApplyOps applies ops in order and reports how many of them took
	// effect before the first error.
	ApplyOps(ctx context.Context, ops []Op) (applied int, err error)
}

// Apply applies ops to st in order and reports how many took effect before
// the first error; each applied Want op then carries its Result. A store
// that implements Applier takes the batch whole; any other gets one call per
// op — Set for an OpSet, Update with op.Apply for a rewrite — so on Local
// each rewrite runs under its key's shard lock and no lock is held from one
// op to the next. An empty batch touches nothing.
func Apply(ctx context.Context, st Store, ops ...Op) (applied int, err error) {
	if len(ops) == 0 {
		return 0, nil
	}
	if a, ok := st.(Applier); ok {
		return a.ApplyOps(ctx, ops)
	}
	local, _ := st.(*Local)
	for i := range ops {
		op := &ops[i]
		switch {
		case op.Kind == OpSet:
			if err = st.Set(ctx, op.Key, op.Val); err == nil && op.Want {
				op.result = op.Val
			}
		case local != nil:
			err = local.Update(ctx, op.Key, op.applyWant) // a concrete call keeps the method value off the heap
		default:
			err = st.Update(ctx, op.Key, op.applyWant)
		}
		if err != nil {
			return i, err
		}
	}
	return len(ops), nil
}

// Batch is a pooled op buffer for building one Apply call: append to Ops,
// apply them, Release.
type Batch struct{ Ops []Op }

var batches = sync.Pool{New: func() any { return new(Batch) }}

// AcquireBatch returns an empty batch from a pool, so an action's writes
// need no buffer of their own.
func AcquireBatch() *Batch { return batches.Get().(*Batch) }

// Release empties the batch, dropping its references to keys, values and
// results, and returns it to the pool.
func (b *Batch) Release() {
	clear(b.Ops)
	b.Ops = b.Ops[:0]
	batches.Put(b)
}
