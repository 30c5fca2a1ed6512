package topn

// Ranker is a bounded descending-score ranker (ann.Index.Neighbors and the
// benchmark's in-process harness use it). It keeps the same admission and
// ordering semantics as List for a stream of *distinct* ids — reject when
// the list is full and the score does not beat the current minimum, bubble
// strictly-better entries up, preserve insertion order among equal scores —
// but maintains no id index: a deduplicated batch makes List's map pure
// overhead (the warm-path profile showed its hash and assign churn
// dominating the request). The serve path applies the same rule to
// positions in its scored batch rather than to ids (recommend's
// serveScratch.rank); recommend.FuzzSlateMatchesReference holds that copy
// to this one.
//
// Feeding a Ranker a duplicate id is a caller bug: both occurrences can end
// up in the list. List remains the structure for id-updating workloads (the
// similar tables, the hot lists).
//
// The zero value is not usable; construct with NewRanker.
type Ranker struct {
	limit   int
	entries []Entry
}

// NewRanker returns an empty ranker that retains at most limit entries.
// It panics if limit is not positive.
func NewRanker(limit int) *Ranker {
	if limit <= 0 {
		panic("topn: limit must be positive")
	}
	return &Ranker{limit: limit, entries: make([]Entry, 0, limit)}
}

// Push offers one entry, reporting whether it was admitted. Identical to
// List.Update over distinct ids: a full ranker admits only scores strictly
// above the current minimum, and equal scores keep first-arrival order.
func (r *Ranker) Push(id string, score float64) bool {
	n := len(r.entries)
	if n == r.limit {
		if score <= r.entries[n-1].Score {
			return false
		}
		n-- // overwrite the displaced minimum during the bubble
	}
	// Bubble up from position n: shift strictly-worse entries down one slot,
	// then place the new entry. "Strictly worse" keeps ties insertion-ordered.
	i := n
	for i > 0 && r.entries[i-1].Score < score {
		i--
	}
	r.entries = r.entries[:n+1]
	copy(r.entries[i+1:], r.entries[i:n])
	r.entries[i] = Entry{ID: id, Score: score}
	return true
}

// Reset empties the ranker in place, keeping its backing storage and limit.
func (r *Ranker) Reset() { r.entries = r.entries[:0] }

// Len returns the number of retained entries.
func (r *Ranker) Len() int { return len(r.entries) }

// All returns every entry, best first, as a copy.
func (r *Ranker) All() []Entry {
	out := make([]Entry, len(r.entries))
	copy(out, r.entries)
	return out
}
