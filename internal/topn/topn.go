// Package topn maintains bounded, score-ordered lists of items.
//
// Three parts of the system keep "best K by score" structures: the per-video
// similar-video tables (§4.2 of the paper), the per-demographic-group hot
// video lists (§5.2.1), and the final ranking step of recommendation
// generation (§4.1). All of them share the semantics implemented here:
// highest score first, at most N entries, one entry per item ID (updating an
// existing item's score re-ranks it rather than duplicating it).
package topn

import "sort"

// Entry is one scored item in a list.
type Entry struct {
	ID    string
	Score float64
}

// List is a bounded descending-score list with unique item IDs.
// The zero value is not usable; construct with NewList.
//
// List is not safe for concurrent use. The kvstore serializes access per key,
// and the ResultStorage bolt owns each video's list exclusively via fields
// grouping, so no internal locking is needed.
type List struct {
	limit   int
	entries []Entry
	index   map[string]int // ID -> position in entries
}

// NewList returns an empty list that retains at most limit entries.
// It panics if limit is not positive.
func NewList(limit int) *List {
	if limit <= 0 {
		panic("topn: limit must be positive")
	}
	return &List{limit: limit, index: make(map[string]int)}
}

// Update inserts the item or replaces its score, then restores order and the
// size bound. It reports whether the item is present after the update (false
// means it fell off the bottom of a full list).
func (l *List) Update(id string, score float64) bool {
	if pos, ok := l.index[id]; ok {
		l.entries[pos].Score = score
		l.fix(pos)
		_, still := l.index[id]
		return still
	}
	if len(l.entries) < l.limit {
		l.entries = append(l.entries, Entry{ID: id, Score: score})
		l.index[id] = len(l.entries) - 1
		l.fix(len(l.entries) - 1)
		return true
	}
	// Full: only admit if better than the current minimum (last entry).
	last := len(l.entries) - 1
	if score <= l.entries[last].Score {
		return false
	}
	delete(l.index, l.entries[last].ID)
	l.entries[last] = Entry{ID: id, Score: score}
	l.index[id] = last
	l.fix(last)
	return true
}

// fix restores descending order after the entry at pos changed, and rebuilds
// affected index positions.
func (l *List) fix(pos int) {
	e := l.entries[pos]
	// Bubble up while better than the predecessor.
	for pos > 0 && l.entries[pos-1].Score < e.Score {
		l.entries[pos] = l.entries[pos-1]
		l.index[l.entries[pos].ID] = pos
		pos--
	}
	// Bubble down while worse than the successor.
	for pos < len(l.entries)-1 && l.entries[pos+1].Score > e.Score {
		l.entries[pos] = l.entries[pos+1]
		l.index[l.entries[pos].ID] = pos
		pos++
	}
	l.entries[pos] = e
	l.index[e.ID] = pos
}

// Score returns the item's score and whether it is present.
func (l *List) Score(id string) (float64, bool) {
	pos, ok := l.index[id]
	if !ok {
		return 0, false
	}
	return l.entries[pos].Score, true
}

// Reset empties the list in place, keeping its backing storage and limit, so
// a serving path can reuse one List across requests instead of reallocating.
func (l *List) Reset() {
	clear(l.index)
	l.entries = l.entries[:0]
}

// Len returns the number of stored entries.
func (l *List) Len() int { return len(l.entries) }

// Limit returns the configured maximum size.
func (l *List) Limit() int { return l.limit }

// Top returns up to k entries, best first, as a copy.
func (l *List) Top(k int) []Entry {
	if k > len(l.entries) {
		k = len(l.entries)
	}
	if k < 0 {
		k = 0
	}
	out := make([]Entry, k)
	copy(out, l.entries[:k])
	return out
}

// All returns every entry, best first, as a copy.
func (l *List) All() []Entry { return l.Top(len(l.entries)) }

// SortEntriesDesc orders entries by descending score in place, breaking ties
// by ascending ID so that rankings are deterministic across runs.
func SortEntriesDesc(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Score != entries[j].Score {
			return entries[i].Score > entries[j].Score
		}
		return entries[i].ID < entries[j].ID
	})
}
