// Package intern provides an append-only string interner: a stable dense
// int32 slot per distinct string. The serving path uses it to replace
// per-candidate string-map operations with array indexing — the profile that
// motivated it showed the warm Recommend path dominated by map hashing and
// assignment churn (candidate dedup, id→score joins), not by float math.
//
// Slots are assigned in first-sight order and never reused, so any structure
// indexed by slot (the quantized parameter table, the ANN index, per-request
// epoch marks) can grow monotonically and share one id space. The table is
// catalog-bounded by construction: everything interned is a video id that
// exists in the store.
package intern

import "sync"

// Table is an append-only string→slot interner, safe for concurrent use.
// Reads batch under one RLock; interning new strings takes the write lock
// only for the ids not yet present.
type Table struct {
	mu    sync.RWMutex
	slots map[string]int32 // guarded by mu
	ids   []string         // guarded by mu; ids[slot] is the interned string
}

// New returns an empty table.
func New() *Table {
	return &Table{slots: make(map[string]int32)}
}

// Len returns the number of interned strings (also the next slot).
func (t *Table) Len() int {
	t.mu.RLock()
	n := len(t.ids)
	t.mu.RUnlock()
	return n
}

// Slot returns the id's dense slot, interning it on first sight.
func (t *Table) Slot(id string) int32 {
	t.mu.RLock()
	s, ok := t.slots[id]
	t.mu.RUnlock()
	if ok {
		return s
	}
	t.mu.Lock()
	s = t.internLocked(id)
	t.mu.Unlock()
	return s
}

// internLocked assigns the next slot to id unless it raced in already.
// The caller holds mu.
func (t *Table) internLocked(id string) int32 {
	if s, ok := t.slots[id]; ok {
		return s
	}
	s := int32(len(t.ids))
	t.slots[id] = s
	t.ids = append(t.ids, id)
	return s
}

// Slots resolves every id into its slot, interning unseen ids, and returns
// the slots parallel to ids reusing dst's backing array. The common case —
// every id already interned — costs one RLock for the whole batch; only the
// misses upgrade to the write lock.
func (t *Table) Slots(ids []string, dst []int32) []int32 {
	if cap(dst) < len(ids) {
		dst = make([]int32, len(ids))
	} else {
		dst = dst[:len(ids)]
	}
	misses := 0
	t.mu.RLock()
	for i, id := range ids {
		if s, ok := t.slots[id]; ok {
			dst[i] = s
		} else {
			dst[i] = -1
			misses++
		}
	}
	t.mu.RUnlock()
	if misses == 0 {
		return dst
	}
	t.mu.Lock()
	for i, id := range ids {
		if dst[i] < 0 {
			dst[i] = t.internLocked(id)
		}
	}
	t.mu.Unlock()
	return dst
}

// IDs resolves slots back to their strings into dst (reused when it has
// capacity) under one RLock. Slots outside the table yield empty strings;
// callers only pass slots they obtained from this table.
func (t *Table) IDs(slots []int32, dst []string) []string {
	if cap(dst) < len(slots) {
		dst = make([]string, len(slots))
	} else {
		dst = dst[:len(slots)]
	}
	t.mu.RLock()
	for i, s := range slots {
		if s >= 0 && int(s) < len(t.ids) {
			dst[i] = t.ids[s]
		} else {
			dst[i] = ""
		}
	}
	t.mu.RUnlock()
	return dst
}
