package kvstore

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sync"
)

// EntryList is the write path's working form of one clocked top-N record —
// a similar-video table or a hot list: an 8-byte clock followed by an
// EncodeEntries list, best score first, at most limit entries, one per id.
// A read-modify-write loads the stored entries straight off the encoded
// bytes (ids stay sub-slices of them), changes one entry, and encodes the
// result once; nothing in between is decoded into strings or indexed by a
// map. Its ordering rules are topn.List's, move for move, so the stored
// bytes are what a List-based rewrite would have produced.
//
// A list borrowed with AcquireEntryList aliases the bytes it loaded until
// Release; only what EncodeClocked returns owns its memory.
type EntryList struct {
	limit int
	es    []RawEntry
	ids   []byte // backing for ids that came as strings, not from loaded bytes
	// seen is a one-hash filter over the ids ever placed in es. Stored bytes
	// are parsed, not trusted, so every loaded id must be checked against the
	// ones before it; a clear bit answers that without the scan. Its 1024
	// bits suit the limits in use (50 to 200 entries); a list of thousands
	// would saturate it and fall back to scanning, slower but still right.
	seen [16]uint64
}

var entryLists = sync.Pool{New: func() any { return new(EntryList) }}

// AcquireEntryList returns an empty list bounded to limit entries from a
// pool. limit must be positive.
func AcquireEntryList(limit int) *EntryList {
	l := entryLists.Get().(*EntryList)
	l.limit = limit
	return l
}

// Release empties the list, dropping its references into loaded bytes, and
// returns it to the pool.
func (l *EntryList) Release() {
	l.reset()
	entryLists.Put(l)
}

func (l *EntryList) reset() {
	clear(l.es)
	l.es = l.es[:0]
	l.ids = l.ids[:0]
	l.seen = [16]uint64{}
}

// Load fills the list from an EncodeEntries value, multiplying every score by
// factor and dropping entries that fall below floor. Entries are taken in
// stored order through the same placement Update uses, so a value that
// parses but is out of order, over the limit or repeats an id comes out as
// topn.List would have rebuilt it. A value the cursor rejects leaves the
// list empty and returns the cursor's error.
func (l *EntryList) Load(encoded []byte, factor, floor float64) error {
	c, err := NewEntryCursor(encoded)
	if err != nil {
		return err
	}
	for {
		e, ok, err := c.Next()
		if err != nil {
			l.reset()
			return err
		}
		if !ok {
			return nil
		}
		if s := e.Score * factor; s >= floor {
			l.place(l.find(e.ID), e.ID, s)
		}
	}
}

// Update sets id's score, as topn.List.Update does: an id already present is
// rescored where it stands; a new one joins at the tail of a list below its
// limit, replaces the tail of a full list only when it scores strictly
// higher, and is otherwise dropped. The entry then moves up past strictly
// smaller neighbours or down past strictly larger ones, so among equal scores
// the earlier arrival stays ahead.
func (l *EntryList) Update(id string, score float64) {
	raw := l.own(id)
	l.place(l.find(raw), raw, score)
}

// Add adds delta to id's score (zero when absent) and re-ranks it as Update
// does.
func (l *EntryList) Add(id string, delta float64) {
	raw := l.own(id)
	pos := l.find(raw)
	prev := 0.0
	if pos >= 0 {
		prev = l.es[pos].Score
	}
	l.place(pos, raw, prev+delta)
}

// Remove deletes id's entry if there is one.
func (l *EntryList) Remove(id string) {
	if pos := l.find(l.own(id)); pos >= 0 {
		l.es = slices.Delete(l.es, pos, pos+1)
	}
}

// EncodeClocked returns the record for the list's current state: the clock
// as 8 little-endian bytes, then the entries as EncodeEntries writes them, in
// one buffer of exactly that size which the caller owns.
func (l *EntryList) EncodeClocked(clockMs int64) []byte {
	size := 8 + UvarintSize(uint64(len(l.es)))
	for i := range l.es {
		size += EntrySize(len(l.es[i].ID))
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(clockMs))
	buf = binary.AppendUvarint(buf, uint64(len(l.es)))
	for i := range l.es {
		buf = AppendEntry(buf, l.es[i].ID, l.es[i].Score)
	}
	return buf
}

// own copies a caller's string id into the list's own backing so it can sit
// beside ids that alias loaded bytes. Earlier results stay valid when ids
// grows: they keep the array they were cut from.
func (l *EntryList) own(id string) []byte {
	start := len(l.ids)
	l.ids = append(l.ids, id...)
	return l.ids[start:len(l.ids):len(l.ids)]
}

// idBit maps an id to its bit of the seen filter. Ids differ in their last
// bytes far more often than in their first, so those are what is hashed.
func idBit(id []byte) (word int, mask uint64) {
	var h uint64
	if n := len(id); n >= 8 {
		h = binary.LittleEndian.Uint64(id[n-8:])
	} else {
		for _, c := range id {
			h = h<<8 | uint64(c)
		}
	}
	h = (h ^ uint64(len(id))) * 0x9E3779B97F4A7C15
	return int(h >> 60), 1 << (h >> 54 & 63)
}

// find returns id's position, or -1.
func (l *EntryList) find(id []byte) int {
	if w, m := idBit(id); l.seen[w]&m == 0 {
		return -1
	}
	for i := range l.es {
		if bytes.Equal(l.es[i].ID, id) {
			return i
		}
	}
	return -1
}

// place puts (id, score) at pos — id's position from find, -1 for a new id —
// and restores the order: topn.List's Update and fix.
func (l *EntryList) place(pos int, id []byte, score float64) {
	if pos < 0 {
		if len(l.es) < l.limit {
			l.es = append(l.es, RawEntry{})
		} else if score <= l.es[len(l.es)-1].Score {
			return // full, and no better than the current minimum (last entry)
		}
		pos = len(l.es) - 1
		l.es[pos].ID = id
		w, m := idBit(id)
		l.seen[w] |= m
	}
	es := l.es
	e := RawEntry{ID: es[pos].ID, Score: score}
	for pos > 0 && es[pos-1].Score < score {
		es[pos] = es[pos-1]
		pos--
	}
	for pos < len(es)-1 && es[pos+1].Score > score {
		es[pos] = es[pos+1]
		pos++
	}
	es[pos] = e
}
