package core

import (
	"context"
	"fmt"
	"sync"

	"vidrec/internal/intern"
	"vidrec/internal/kvstore"
	"vidrec/internal/vecmath"
)

// The item table: a serving model scores every candidate from one dense
// in-memory table of item records, indexed by the shared intern slot. A
// record holds the item in the form the model scores from — its float vector
// and bias by default, or, once EnableQuantized selects the int8 form, their
// quantization (scale, bias, int8 vector; vecmath.Quantize). Both forms are
// built from the float parameters the store holds; the store keeps nothing
// else for them.
// The warm scoring loop is one RLock plus array reads and dot products: no
// per-item string hashing, no per-item cache lookups, no decode. Item
// parameters therefore never pass through objcache on the serving path —
// nor, in the float form, on the write path, whose item reads (the SGD
// step's Load, pair scoring's ItemVector) take the same records. The table
// is their cache, and like objcache it never changes a result.
//
// Coherence follows the same single-writer discipline as objcache: StoreItem
// writes through to the table (or drops the slot when a write fails), and
// read-through installs are guarded by a version captured before the store
// fetch, so a racing publish can never be overwritten by a stale decode. The
// version is table-global rather than per-slot (a dense per-slot version
// array would double the table); under heavy concurrent training some
// read-through installs are skipped and simply re-resolve on the next request
// — correctness is unaffected. The table is catalog-bounded like the interner
// whose slots index it.

// itemRec is one item's resolved serving state. The float form fills vec;
// the int8 form fills scale and data. cold marks a float record holding the
// cold-start vector of an item the store has never seen.
type itemRec struct {
	ready bool
	cold  bool
	bias  float64
	vec   []float64
	scale float64
	data  []int8
}

// itemTable is the dense slot-indexed record table.
type itemTable struct {
	it      *intern.Table
	q8      bool // records hold the int8 form
	mu      sync.RWMutex
	recs    []itemRec // guarded by mu; indexed by intern slot
	version uint64    // guarded by mu; bumped on every write-through and flush
}

// record builds the table record for an item's float parameters. The float
// form keeps vec itself: callers hand over a vector nothing mutates.
func (t *itemTable) record(vec []float64, bias float64) itemRec {
	if !t.q8 {
		return itemRec{ready: true, bias: bias, vec: vec}
	}
	q := vecmath.Quantize(vec) // alloccheck: miss path and publish path; the record retains the data
	return itemRec{ready: true, bias: bias, scale: q.Scale, data: q.Data}
}

// snapshotVersion returns the current install guard.
func (t *itemTable) snapshotVersion() uint64 {
	t.mu.RLock()
	v := t.version
	t.mu.RUnlock()
	return v
}

// install writes one slot's record unconditionally and bumps the version:
// the publish path, where the writer owns the freshest value. A zero record
// drops the slot.
func (t *itemTable) install(slot int32, rec itemRec) {
	t.mu.Lock()
	t.growLocked(slot)
	t.recs[slot] = rec
	t.version++
	t.mu.Unlock()
}

// installIfUnchanged installs a read-through decode only if no write raced
// the fetch; a skipped install just re-resolves on the next request.
func (t *itemTable) installIfUnchanged(slot int32, rec itemRec, version uint64) {
	t.mu.Lock()
	if t.version == version {
		t.growLocked(slot)
		t.recs[slot] = rec
	}
	t.mu.Unlock()
}

// growLocked extends the record table to cover slot. The caller holds mu.
func (t *itemTable) growLocked(slot int32) {
	for int(slot) >= len(t.recs) {
		t.recs = append(t.recs, itemRec{}) // alloccheck: table growth is catalog-bounded, amortized over installs
	}
}

// flush empties every slot, forcing re-resolution — the cold-cache drill.
func (t *itemTable) flush() {
	t.mu.Lock()
	clear(t.recs)
	t.version++
	t.mu.Unlock()
}

// SetInterner gives the model its item table in the float form, with slots
// drawn from the shared interner. Without one (a bare NewModel: baselines,
// experiments) ScoreCandidates reads the store directly. A model that already
// has a table keeps it. Wire it before traffic starts (NewSystem does).
func (m *Model) SetInterner(it *intern.Table) {
	if it == nil || m.items != nil {
		return
	}
	m.items = &itemTable{it: it} // alloccheck: once per model at wiring time, never per request
}

// EnableQuantized switches the item table to the int8 form: records quantize
// the item's float parameters at publish and on a miss, and scoring runs
// integer dot products. The store's contents do not change. Slots are drawn
// from the shared interner. Wire it before traffic starts (NewSystem does);
// it is not safe to toggle under load.
func (m *Model) EnableQuantized(it *intern.Table) {
	if it == nil {
		return
	}
	m.items = &itemTable{it: it, q8: true} // alloccheck: once per model at wiring time, never per request
}

// FlushItems empties the item table (no-op without one), so the next scored
// batch re-resolves every item from the store — the item-table analogue of
// flushing the decoded-value cache.
func (m *Model) FlushItems() {
	if m.items != nil {
		m.items.flush()
	}
}

// SetItemVectorHook registers fn to observe every item vector the model
// stores — the ANN index's feed. StoreItem invokes it after a successful
// write with the id and the stored float vector; fn must not retain or
// mutate vec. Wire before traffic starts; not safe to swap under load.
func (m *Model) SetItemVectorHook(fn func(id string, vec []float64)) { m.itemHook = fn }

// scoreScratch is the scorers' pooled working memory.
type scoreScratch struct {
	slots []int32   // ScoreCandidates' slot resolution
	recs  []itemRec // per item: a resolved miss, or an int8 hit copied out of the table
	miss  []int     // indices into the batch unresolved after the RLock pass
	keys  []string
	qu    vecmath.QVec // the quantized user vector
	datas [][]int8     // DotQ8Batch input
	dots  []int32      // DotQ8Batch output
}

// scratch takes a scoreScratch from the pool; callers Put it back.
func (m *Model) scratch() *scoreScratch {
	scr, _ := m.scorePool.Get().(*scoreScratch)
	if scr == nil {
		scr = &scoreScratch{} // alloccheck: pool miss, cold start only
	}
	return scr
}

// sizedRecs resizes the record scratch for n items. It is not cleared: a
// scorer writes every entry it reads.
func (s *scoreScratch) sizedRecs(n int) []itemRec {
	if cap(s.recs) < n {
		s.recs = make([]itemRec, n) // alloccheck: grow-once; the pooled scratch is reused
	} else {
		s.recs = s.recs[:n]
	}
	return s.recs
}

// sized returns dst resized to n, reusing its backing array when it can.
func sized(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n) // alloccheck: grow-once; callers pass pooled scratch
	}
	return dst[:n]
}

// ScoreSlots evaluates Eq. 2 for one user against many candidates from the
// item table; slots must be parallel to items (the serving path resolves them
// once per request through the shared interner). The scores are written into
// dst (reused when it has capacity) and returned.
//
// All slots are read in one RLock pass. Items the table does not hold yet
// resolve from the store in one batched fetch and are installed for the next
// request; an item the store has never seen scores, and is installed, with
// its deterministic cold-start vector. A model without an item table (no
// interner) scores straight from the store, ignoring slots.
//
// hotpath: every scored request runs here; warm, it is one RLock pass plus the dot products
func (m *Model) ScoreSlots(ctx context.Context, userID string, items []string, slots []int32, dst []float64) ([]float64, error) {
	if m.items == nil {
		return m.scoreFromStore(ctx, userID, items, sized(dst, len(items)))
	}
	scr := m.scratch()
	defer m.scorePool.Put(scr)
	return m.scoreSlots(ctx, userID, items, slots, dst, scr)
}

// ScoreCandidatesQ8 is ScoreSlots under its earlier name, kept only because
// the benchmark module links it.
func (m *Model) ScoreCandidatesQ8(ctx context.Context, userID string, items []string, slots []int32, dst []float64) ([]float64, error) {
	return m.ScoreSlots(ctx, userID, items, slots, dst)
}

// scoreSlots is ScoreSlots over a table, with the caller's scratch.
func (m *Model) scoreSlots(ctx context.Context, userID string, items []string, slots []int32, dst []float64, scr *scoreScratch) ([]float64, error) {
	if len(slots) != len(items) {
		return nil, fmt.Errorf("core: %d slots for %d items", len(slots), len(items))
	}
	uvec, ubias, _, err := m.userState(ctx, userID)
	if err != nil {
		return nil, err
	}
	mu, err := m.globalMean(ctx)
	if err != nil {
		return nil, err
	}
	dst = sized(dst, len(items))
	recs := scr.sizedRecs(len(items))

	// One RLock pass: float hits score in place, which costs less than
	// copying their records out; int8 hits are copied out for the batched
	// integer kernel.
	t := m.items
	miss := scr.miss[:0]
	t.mu.RLock()
	for i, slot := range slots {
		if int(slot) >= len(t.recs) || !t.recs[slot].ready {
			miss = append(miss, i)
			continue
		}
		if r := &t.recs[slot]; t.q8 {
			recs[i] = *r
		} else {
			dst[i] = mu + ubias + r.bias + vecmath.Dot(uvec, r.vec)
		}
	}
	t.mu.RUnlock()
	scr.miss = miss
	if len(miss) > 0 {
		if err := m.resolve(ctx, items, slots, scr); err != nil {
			return nil, err
		}
	}

	if !t.q8 {
		for _, i := range miss {
			dst[i] = mu + ubias + recs[i].bias + vecmath.Dot(uvec, recs[i].vec)
		}
		return dst, nil
	}
	scr.qu = vecmath.QuantizeInto(scr.qu, uvec)
	datas := scr.datas[:0]
	for i := range recs {
		datas = append(datas, recs[i].data)
	}
	scr.datas = datas
	scr.dots = vecmath.DotQ8Batch(scr.qu.Data, datas, scr.dots)
	us := scr.qu.Scale
	for i := range recs {
		dst[i] = mu + ubias + recs[i].bias + float64(scr.dots[i])*us*recs[i].scale
	}
	return dst, nil
}

// resolve fills the scratch records listed in scr.miss from the store and
// installs each under the pre-fetch version guard. Either form resolves from
// the float parameters: one MGet over vector and bias keys, with the
// deterministic cold-start vector for an item the store has never seen, and
// the record built from them the way a publish builds it (itemTable.record).
func (m *Model) resolve(ctx context.Context, items []string, slots []int32, scr *scoreScratch) error {
	t := m.items
	version := t.snapshotVersion()
	miss := scr.miss
	keys := scr.keys[:0]
	for _, i := range miss {
		ik := m.itemKeysFor(items[i])
		keys = append(keys, ik.vec, ik.bias)
	}
	scr.keys = keys[:0]
	vals, err := m.store.MGet(ctx, keys)
	if err != nil {
		return fmt.Errorf("core: batch load item params: %w", err)
	}
	for j, i := range miss {
		var vec []float64
		if b := vals[2*j]; b != nil {
			if vec, err = kvstore.DecodeFloats(b); err != nil { // alloccheck: miss path; the float table retains the vector
				return fmt.Errorf("core: decode item vector %s: %w", items[i], err)
			}
		} else {
			vec = m.params.initVector("i", items[i])
		}
		var bias float64
		if b := vals[2*j+1]; b != nil {
			if bias, err = kvstore.DecodeFloat(b); err != nil {
				return fmt.Errorf("core: decode item bias %s: %w", items[i], err)
			}
		}
		scr.recs[i] = t.record(vec, bias)
		scr.recs[i].cold = vals[2*j] == nil
		t.installIfUnchanged(slots[i], scr.recs[i], version)
	}
	return nil
}

// itemRecord returns one item's record, resolving a miss from the store the
// way a scored batch does.
func (m *Model) itemRecord(ctx context.Context, id string) (itemRec, error) {
	t := m.items
	slot := t.it.Slot(id)
	var rec itemRec
	t.mu.RLock()
	if int(slot) < len(t.recs) {
		rec = t.recs[slot]
	}
	t.mu.RUnlock()
	if rec.ready {
		return rec, nil
	}
	scr := m.scratch()
	defer m.scorePool.Put(scr)
	items, slots := [1]string{id}, [1]int32{slot}
	scr.sizedRecs(1)
	scr.miss = append(scr.miss[:0], 0)
	if err := m.resolve(ctx, items[:], slots[:], scr); err != nil {
		return itemRec{}, err
	}
	return scr.recs[0], nil
}
