package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"vidrec/internal/feedback"
	"vidrec/internal/intern"
	"vidrec/internal/kvstore"
	"vidrec/internal/objcache"
	"vidrec/internal/vecmath"
)

// itemRig is a trained model that serves the way NewSystem wires one: reads
// through a decoded-value cache whose store invalidates it on write, item
// parameters from the slot-indexed table, and a fault injector at the bottom
// that counts every operation reaching the store.
type itemRig struct {
	m      *Model
	faulty *kvstore.Faulty
	items  []string // trained items, then items the store has never seen
	slots  []int32
	users  []string // trained users, then one the store has never seen
}

func newItemRig(t *testing.T, quantized bool) *itemRig {
	t.Helper()
	ctx := context.Background()
	faulty := kvstore.NewFaulty(kvstore.NewLocal(8), 1)
	cache := objcache.New(0)
	m, err := NewModel("t", objcache.WrapStore(faulty, cache), testParams())
	if err != nil {
		t.Fatal(err)
	}
	m.SetCache(cache)
	it := intern.New()
	if quantized {
		m.EnableQuantized(it)
	} else {
		m.SetInterner(it)
	}
	r := &itemRig{m: m, faulty: faulty}
	for i := 0; i < 30; i++ {
		r.users = append(r.users, fmt.Sprintf("u%02d", i))
	}
	for i := 0; i < 70; i++ {
		r.items = append(r.items, fmt.Sprintf("v%02d", i))
	}
	rng := rand.New(rand.NewPCG(7, 11))
	base := time.Unix(1000, 0)
	for i := 0; i < 3000; i++ {
		a := feedback.Action{
			UserID: r.users[rng.IntN(len(r.users))], VideoID: r.items[rng.IntN(60)],
			Type: feedback.PlayTime, ViewTime: time.Duration(1+rng.IntN(100)) * time.Second,
			VideoLength: 100 * time.Second, Timestamp: base.Add(time.Duration(i) * time.Second),
		}
		if rng.IntN(4) == 0 {
			a.Type = feedback.Impress
		}
		if _, err := m.ProcessAction(ctx, a); err != nil {
			t.Fatal(err)
		}
	}
	r.users = append(r.users, "nobody")
	r.slots = it.Slots(r.items, nil)
	return r
}

// scoreCachedReference is the float scorer the item table replaced, kept as
// the reference it must match bit for bit: a decoded-value cache lookup per
// item vector and bias, one MGet for the misses (installed under the cache's
// version guard), and the cold-start vector for items the store lacks.
func scoreCachedReference(ctx context.Context, m *Model, userID string, items []string) ([]float64, error) {
	uvec, ubias, _, err := m.userState(ctx, userID)
	if err != nil {
		return nil, err
	}
	mu, err := m.globalMean(ctx)
	if err != nil {
		return nil, err
	}
	n := len(items)
	scores := make([]float64, n)
	vecs, haveVec, biases := make([][]float64, n), make([]bool, n), make([]float64, n)
	var missKeys []string
	var missVers []uint64
	var missSlot []int // item index *2, +1 when the key is the bias
	miss := func(key string, slot int) {
		missVers = append(missVers, m.cache.Version(key))
		missKeys = append(missKeys, key)
		missSlot = append(missSlot, slot)
	}
	for i, id := range items {
		ik := m.itemKeysFor(id)
		if v, present, ok := m.cache.Lookup(ik.vec); ok {
			if present {
				vecs[i] = v.([]float64)
				haveVec[i] = true
			}
		} else {
			miss(ik.vec, i*2)
		}
		if v, present, ok := m.cache.Lookup(ik.bias); ok {
			if present {
				biases[i] = v.(float64)
			}
		} else {
			miss(ik.bias, i*2+1)
		}
	}
	if len(missKeys) > 0 {
		vals, err := m.store.MGet(ctx, missKeys)
		if err != nil {
			return nil, fmt.Errorf("core: batch load item params: %w", err)
		}
		for j, b := range vals {
			i := missSlot[j] / 2
			if b == nil {
				m.cache.StoreIfUnchanged(missKeys[j], nil, false, missVers[j])
				continue
			}
			if missSlot[j]%2 == 0 {
				v, err := kvstore.DecodeFloats(b)
				if err != nil {
					return nil, fmt.Errorf("core: decode item vector %s: %w", items[i], err)
				}
				vecs[i] = v
				haveVec[i] = true
				m.cache.StoreIfUnchanged(missKeys[j], v, true, missVers[j])
			} else {
				v, err := kvstore.DecodeFloat(b)
				if err != nil {
					return nil, fmt.Errorf("core: decode item bias %s: %w", items[i], err)
				}
				biases[i] = v
				m.cache.StoreIfUnchanged(missKeys[j], v, true, missVers[j])
			}
		}
	}
	for i, id := range items {
		ivec := vecs[i]
		if !haveVec[i] {
			ivec = m.params.initVector("i", id)
		}
		scores[i] = mu + ubias + biases[i] + vecmath.Dot(uvec, ivec)
	}
	return scores, nil
}

// scoreQ8Reference is the int8 scorer's arithmetic as it stood before the
// item table took both forms: each item's float state quantized, dotted in
// integers against the quantized user vector.
func scoreQ8Reference(ctx context.Context, m *Model, userID string, items []string) ([]float64, error) {
	uvec, ubias, _, err := m.userState(ctx, userID)
	if err != nil {
		return nil, err
	}
	mu, err := m.globalMean(ctx)
	if err != nil {
		return nil, err
	}
	qu := vecmath.Quantize(uvec)
	scores := make([]float64, len(items))
	for i, id := range items {
		vec, bias, _, err := m.itemState(ctx, id)
		if err != nil {
			return nil, err
		}
		q := vecmath.Quantize(vec)
		scores[i] = mu + ubias + bias + float64(vecmath.DotQ8(qu.Data, q.Data))*qu.Scale*q.Scale
	}
	return scores, nil
}

// reference scores items the way the scorer the table replaced would.
func (r *itemRig) reference(t *testing.T, user string, items []string) []float64 {
	t.Helper()
	ref := scoreCachedReference
	if r.m.items.q8 {
		ref = scoreQ8Reference
	}
	want, err := ref(context.Background(), r.m, user, items)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// score runs ScoreSlots over the rig's items, returning the scores and how
// many operations reached the store.
func (r *itemRig) score(t *testing.T, user string) ([]float64, uint64) {
	t.Helper()
	before := r.faulty.Ops()
	got, err := r.m.ScoreSlots(context.Background(), user, r.items, r.slots, nil)
	if err != nil {
		t.Fatal(err)
	}
	return got, r.faulty.Ops() - before
}

func sameBits(t *testing.T, what string, items []string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: %s scored %v, reference %v", what, items[i], got[i], want[i])
		}
	}
}

func forms(t *testing.T, fn func(t *testing.T, quantized bool)) {
	for _, q := range []bool{false, true} {
		t.Run(fmt.Sprintf("quantized=%v", q), func(t *testing.T) { fn(t, q) })
	}
}

// TestScoreSlotsMatchesReference pins the item table to the scorer it
// replaced: cold table, warm table and the string ScoreCandidates all score
// every user — trained or unknown — against trained and never-seen items
// bit-identically to the reference. Both forms resolve a cold table from the
// same float parameters, so they reach the store equally often.
func TestScoreSlotsMatchesReference(t *testing.T) {
	coldOps := make(map[bool]uint64) // per form
	forms(t, func(t *testing.T, quantized bool) {
		r := newItemRig(t, quantized)
		for _, u := range []string{"nobody", r.users[0], r.users[7]} {
			want := r.reference(t, u, r.items)
			cold, ops := r.score(t, u)
			sameBits(t, "cold table", r.items, cold, want)
			if u == "nobody" {
				coldOps[quantized] = ops
			}
			warm, ops := r.score(t, u)
			sameBits(t, "warm table", r.items, warm, want)
			if ops != 0 {
				t.Errorf("warm ScoreSlots reached the store %d times, want 0", ops)
			}
			str, err := r.m.ScoreCandidates(context.Background(), u, r.items)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "ScoreCandidates", r.items, str, want)
		}
		if _, err := r.m.ScoreSlots(context.Background(), "u00", r.items, r.slots[1:], nil); err == nil {
			t.Error("slots shorter than items accepted")
		}
	})
	if coldOps[false] == 0 || coldOps[true] != coldOps[false] {
		t.Errorf("a cold table reached the store %d times in the int8 form and %d in the float form, want the same nonzero count", coldOps[true], coldOps[false])
	}
}

// TestItemTableWriteThrough checks StoreItem installs the stored record, so
// the next score reflects the write without a store read — and that the
// float form keeps the very vector it was handed.
func TestItemTableWriteThrough(t *testing.T) {
	forms(t, func(t *testing.T, quantized bool) {
		r := newItemRig(t, quantized)
		ctx := context.Background()
		u := r.users[3]
		r.score(t, u)
		vec := make([]float64, testParams().Factors)
		for i := range vec {
			vec[i] = 0.3 - 0.05*float64(i)
		}
		for _, id := range []string{"v05", "v65"} { // trained, and never seen before
			if err := r.m.StoreItem(ctx, id, vec, 0.25); err != nil {
				t.Fatal(err)
			}
		}
		got, ops := r.score(t, u)
		if ops != 0 {
			t.Errorf("scoring after StoreItem reached the store %d times, want 0 (write-through)", ops)
		}
		sameBits(t, "after StoreItem", r.items, got, r.reference(t, u, r.items))
		rec := r.m.items.recs[r.slots[5]]
		if !quantized && &rec.vec[0] != &vec[0] {
			t.Error("the float record holds a copy of the stored vector, want the vector itself")
		}
		if rec.bias != 0.25 {
			t.Errorf("written-through bias = %v, want 0.25", rec.bias)
		}
	})
}

// TestItemTableFailedSetDropsSlot fails the bias write of a StoreItem whose
// vector write lands: the slot is dropped, and the next score re-resolves
// whatever the store now holds rather than what the writer meant to store.
func TestItemTableFailedSetDropsSlot(t *testing.T) {
	forms(t, func(t *testing.T, quantized bool) {
		r := newItemRig(t, quantized)
		ctx := context.Background()
		u := r.users[4]
		r.score(t, u)
		id := "v02"
		r.faulty.SetSchedule([]kvstore.FaultPhase{{FailRate: 1, KeyPrefix: r.m.itemKeysFor(id).bias}})
		vec := make([]float64, testParams().Factors)
		vec[0] = 1
		if err := r.m.StoreItem(ctx, id, vec, 9); err == nil {
			t.Fatal("StoreItem succeeded through a failing bias write")
		}
		r.faulty.SetSchedule(nil)
		if r.m.items.recs[r.slots[2]].ready {
			t.Fatal("a failed StoreItem left its slot in the table")
		}
		got, ops := r.score(t, u)
		if ops == 0 {
			t.Error("the dropped slot was scored without a store read")
		}
		sameBits(t, "after a failed StoreItem", r.items, got, r.reference(t, u, r.items))
		rec := r.m.items.recs[r.slots[2]]
		if rec.bias == 9 {
			t.Errorf("re-resolved bias = %v, want the old bias", rec.bias)
		}
		if quantized {
			if q := vecmath.Quantize(vec); rec.scale != q.Scale || string(int8Bytes(rec.data)) != string(int8Bytes(q.Data)) {
				t.Error("re-resolved int8 record is not the quantized stored vector")
			}
		} else if rec.vec[0] != 1 {
			t.Errorf("re-resolved vec[0] = %v, want the stored vector's 1", rec.vec[0])
		}
	})
}

// TestFlushItemsEmptiesTable checks the cold-serving drill: after FlushItems
// every slot re-resolves from the store, with unchanged scores.
func TestFlushItemsEmptiesTable(t *testing.T) {
	forms(t, func(t *testing.T, quantized bool) {
		r := newItemRig(t, quantized)
		u := r.users[5]
		want, _ := r.score(t, u)
		r.m.FlushItems()
		for slot, rec := range r.m.items.recs {
			if rec.ready {
				t.Fatalf("slot %d still holds a record after FlushItems", slot)
			}
		}
		got, ops := r.score(t, u)
		if ops == 0 {
			t.Error("scoring after FlushItems reached the store 0 times")
		}
		sameBits(t, "after FlushItems", r.items, got, want)
		if _, ops := r.score(t, u); ops != 0 {
			t.Errorf("re-warmed table reached the store %d times, want 0", ops)
		}
	})
}

// TestItemTableColdStart checks an item the store has never seen scores
// with, and is installed as, its deterministic cold-start vector — until it
// is stored.
func TestItemTableColdStart(t *testing.T) {
	forms(t, func(t *testing.T, quantized bool) {
		r := newItemRig(t, quantized)
		ctx := context.Background()
		u := r.users[6]
		before, _ := r.score(t, u)
		slot := r.slots[66] // never trained
		rec := r.m.items.recs[slot]
		init := r.m.params.initVector("i", "v66")
		if quantized {
			if q := vecmath.Quantize(init); rec.scale != q.Scale || string(int8Bytes(rec.data)) != string(int8Bytes(q.Data)) || rec.bias != 0 {
				t.Error("cold-start record is not the quantized cold-start vector")
			}
		} else {
			for i := range init {
				if math.Float64bits(rec.vec[i]) != math.Float64bits(init[i]) || rec.bias != 0 {
					t.Fatal("cold-start record is not the cold-start vector")
				}
			}
		}
		vec := make([]float64, len(init))
		vec[1] = 0.5
		if err := r.m.StoreItem(ctx, "v66", vec, 0.1); err != nil {
			t.Fatal(err)
		}
		after, _ := r.score(t, u)
		if after[66] == before[66] {
			t.Error("storing the cold item left its score unchanged")
		}
		sameBits(t, "after storing a cold item", r.items, after, r.reference(t, u, r.items))
	})
}

// TestItemVectorReadsFloatTable checks the write path's item reads in the
// float form come from the table: no store read once an item is resolved or
// written through, the stored vector itself, and the cold-start flag.
func TestItemVectorReadsFloatTable(t *testing.T) {
	r := newItemRig(t, false)
	ctx := context.Background()
	read := func(id string) ([]float64, float64, bool, uint64) {
		t.Helper()
		before := r.faulty.Ops()
		vec, bias, known, err := r.m.ItemVector(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		return vec, bias, known, r.faulty.Ops() - before
	}
	if _, _, known, _ := read("v03"); !known {
		t.Error("trained item read as unknown")
	}
	if _, _, _, ops := read("v03"); ops != 0 {
		t.Errorf("resolved item read reached the store %d times, want 0", ops)
	}
	vec, _, known, _ := read("v67")
	if known {
		t.Error("never-stored item read as known")
	}
	if init := r.m.params.initVector("i", "v67"); math.Float64bits(vec[0]) != math.Float64bits(init[0]) {
		t.Error("never-stored item did not read its cold-start vector")
	}
	stored := make([]float64, testParams().Factors)
	if err := r.m.StoreItem(ctx, "v67", stored, 0.5); err != nil {
		t.Fatal(err)
	}
	vec, bias, known, ops := read("v67")
	if !known || bias != 0.5 || &vec[0] != &stored[0] || ops != 0 {
		t.Errorf("after StoreItem: known %v bias %v same vector %v store reads %d, want true 0.5 true 0", known, bias, &vec[0] == &stored[0], ops)
	}
}

// racingStore runs afterMGet once, between its next MGet's read and its
// return — a write landing while a reader's fetch is in flight.
type racingStore struct {
	kvstore.Store
	afterMGet func()
}

func (s *racingStore) MGet(ctx context.Context, keys []string) ([][]byte, error) {
	vals, err := s.Store.MGet(ctx, keys)
	if f := s.afterMGet; f != nil {
		s.afterMGet = nil
		f()
	}
	return vals, err
}

// TestItemTableStaleInstallLoses stages the race the version guard exists
// for: a StoreItem lands while a table miss is fetching the item's old
// parameters. The write must win — the stale decode is not installed over it.
func TestItemTableStaleInstallLoses(t *testing.T) {
	forms(t, func(t *testing.T, quantized bool) {
		ctx := context.Background()
		rs := &racingStore{Store: kvstore.NewLocal(4)}
		m, err := NewModel("t", rs, testParams())
		if err != nil {
			t.Fatal(err)
		}
		it := intern.New()
		if quantized {
			m.EnableQuantized(it)
		} else {
			m.SetInterner(it)
		}
		vec := func(x float64) []float64 {
			v := make([]float64, testParams().Factors)
			v[0] = x
			return v
		}
		if err := m.StoreItem(ctx, "a", vec(0.5), 0.1); err != nil {
			t.Fatal(err)
		}
		m.FlushItems()
		rs.afterMGet = func() {
			if err := m.StoreItem(ctx, "a", vec(-0.5), 0.2); err != nil {
				t.Error(err)
			}
		}
		slots := it.Slots([]string{"a"}, nil)
		if _, err := m.ScoreSlots(ctx, "u", []string{"a"}, slots, nil); err != nil {
			t.Fatal(err)
		}
		if rec := m.items.recs[slots[0]]; !rec.ready || rec.bias != 0.2 {
			t.Errorf("after a write raced the fetch the table holds bias %v (ready %v), want the written 0.2", rec.bias, rec.ready)
		}
	})
}

func int8Bytes(d []int8) []byte {
	b := make([]byte, len(d))
	for i, v := range d {
		b[i] = byte(v)
	}
	return b
}

// TestItemTableConcurrent runs StoreItem writers (one per item partition,
// the topology's single-writer discipline) against ScoreSlots readers; run
// under -race. Once the writers stop, the table must agree with the store.
func TestItemTableConcurrent(t *testing.T) {
	forms(t, func(t *testing.T, quantized bool) {
		r := newItemRig(t, quantized)
		ctx := context.Background()
		const writers, readers, rounds = 3, 3, 60
		var wg sync.WaitGroup
		errs := make(chan error, writers+readers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for n := 0; n < rounds; n++ {
					for i := w; i < len(r.items); i += writers {
						vec := make([]float64, testParams().Factors)
						vec[n%len(vec)] = float64(n) / rounds
						if err := r.m.StoreItem(ctx, r.items[i], vec, float64(i)/100); err != nil {
							errs <- err
							return
						}
					}
				}
			}(w)
		}
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var dst []float64
				for n := 0; n < rounds; n++ {
					var err error
					if dst, err = r.m.ScoreSlots(ctx, r.users[g], r.items, r.slots, dst); err != nil {
						errs <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		got, _ := r.score(t, r.users[0])
		sameBits(t, "after concurrent writes", r.items, got, r.reference(t, r.users[0], r.items))
	})
}
