package bandit

import (
	"context"
	"fmt"
	"time"

	"vidrec/internal/kvstore"
	"vidrec/internal/objcache"
	"vidrec/internal/topn"
)

// Store persists the bandit's reward state and per-user slate attributions
// in the shared key-value store, following the same component idiom as the
// demographic hot tracker: one namespace per record family, read-modify-
// write through kv.Update, and a decoded-value read cache on the serving-
// path read (the state record) with write-through invalidation.
//
// Two namespaces:
//
//	<name>.bandit:arms    the single State record (pulls/wins per arm)
//	<name>.battr:<user>   the user's last explored slate's attributions
//
// Both use dot-joined namespaces, so they deliberately sit OUTSIDE the
// "<name>/" model/simtable key prefix: a total model blackout (the
// degraded-serving drill) leaves reward state reachable — though the
// degraded path never samples, so nothing writes it during one either.
type Store struct {
	kv      kvstore.Store
	stateNS string
	attrNS  string
	cache   *objcache.Cache // nil disables the decoded-state read cache
}

// stateID is the single state record's id within the bandit namespace.
const stateID = "arms"

// New returns a bandit store rooted at the component namespace name (the
// same root the other pipeline components share, typically "sys").
func New(name string, kv kvstore.Store) (*Store, error) {
	if name == "" {
		return nil, fmt.Errorf("bandit: name must not be empty")
	}
	if kv == nil {
		return nil, fmt.Errorf("bandit: store must not be nil")
	}
	return &Store{kv: kv, stateNS: name + ".bandit", attrNS: name + ".battr"}, nil
}

// SetCache attaches a decoded-value read cache for the state record. The
// cache must wrap the same store via objcache.WrapStore so RecordPulls and
// Reward invalidate it.
func (s *Store) SetCache(c *objcache.Cache) { s.cache = c }

// State returns the current reward state, reading the decoded record
// through the cache. A missing record is the uniform prior (zero State);
// a corrupt or invalid record is an error — sampling never sees it.
func (s *Store) State(ctx context.Context) (State, error) {
	key := kvstore.Key(s.stateNS, stateID)
	st, _, err := objcache.Cached(s.cache, key, func() (State, bool, error) {
		raw, ok, err := s.kv.Get(ctx, key)
		if err != nil {
			return State{}, false, fmt.Errorf("bandit: get state: %w", err)
		}
		if !ok {
			return State{}, true, nil // fresh system: uniform priors
		}
		st, _, err := DecodeState(raw)
		if err != nil {
			return State{}, false, err
		}
		return st, true, nil
	})
	return st, err
}

// RecordPulls charges one served slate's slots to their arms in a single
// read-modify-write: pulls[a] slots were filled from arm a at time ts. A
// corrupt stored record is replaced by the priors plus this charge — bad
// bytes reset the bandit rather than poisoning or wedging it.
func (s *Store) RecordPulls(ctx context.Context, pulls *[NumArms]int, ts time.Time) error {
	total := 0
	for _, n := range pulls {
		if n < 0 {
			return fmt.Errorf("bandit: negative pull count %d", n)
		}
		total += n
	}
	if total == 0 {
		return nil
	}
	key := kvstore.Key(s.stateNS, stateID)
	return s.kv.Update(ctx, key, func(cur []byte, ok bool) ([]byte, bool) {
		var st State
		stamp := ts.UnixMilli()
		if ok {
			if prev, prevMs, err := DecodeState(cur); err == nil {
				st = prev
				if prevMs > stamp {
					stamp = prevMs
				}
			}
		}
		for a := 0; a < NumArms; a++ {
			st.Pulls[a] += float64(pulls[a])
		}
		return EncodeState(st, stamp), true
	})
}

// Reward folds one validated reward event into the state. Invalid events
// are rejected before any store traffic; a corrupt stored record is
// replaced by the priors plus this event.
func (s *Store) Reward(ctx context.Context, ev RewardEvent) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	key := kvstore.Key(s.stateNS, stateID)
	return s.kv.Update(ctx, key, func(cur []byte, ok bool) ([]byte, bool) {
		var st State
		stamp := ev.TsMs
		if ok {
			if prev, prevMs, err := DecodeState(cur); err == nil {
				st = prev
				if prevMs > stamp {
					stamp = prevMs
				}
			}
		}
		st.Apply(ev)
		return EncodeState(st, stamp), true
	})
}

// Attribute overwrites the user's slate attributions with the just-served
// explored slate: slate[i] was filled from arms[i]. Only the latest
// explored slate is attributable — re-serving replaces the breadcrumbs, the
// way a screenful of recommendations replaces the previous screenful.
func (s *Store) Attribute(ctx context.Context, userID string, slate []topn.Entry, arms []Arm) error {
	if userID == "" {
		return fmt.Errorf("bandit: user id must not be empty")
	}
	if len(slate) != len(arms) {
		return fmt.Errorf("bandit: slate has %d entries but %d arms", len(slate), len(arms))
	}
	if len(slate) == 0 {
		return nil
	}
	entries := make([]topn.Entry, len(slate))
	for i, e := range slate {
		if !arms[i].Valid() {
			return fmt.Errorf("bandit: slot %d has unknown arm %d", i, uint8(arms[i]))
		}
		entries[i] = topn.Entry{ID: e.ID, Score: float64(arms[i])}
	}
	return s.kv.Set(ctx, kvstore.Key(s.attrNS, userID), kvstore.EncodeEntries(entries))
}

// Take consumes the attribution for (user, video): if the video sits in the
// user's attributed slate, the owning arm is returned and the entry removed
// (first matching action wins the credit; repeat actions on the same slot
// earn nothing more). A corrupt attribution record is dropped whole —
// malformed bytes can cost credit, never corrupt posteriors.
func (s *Store) Take(ctx context.Context, userID, videoID string) (Arm, bool, error) {
	if userID == "" || videoID == "" {
		return 0, false, fmt.Errorf("bandit: user and video ids must not be empty")
	}
	var (
		arm   Arm
		found bool
	)
	err := s.kv.Update(ctx, kvstore.Key(s.attrNS, userID), func(cur []byte, ok bool) ([]byte, bool) {
		if !ok {
			return nil, false // no attributions: leave the key absent
		}
		entries, err := kvstore.DecodeEntries(cur)
		if err != nil {
			return nil, false // corrupt record: drop it
		}
		kept := entries[:0]
		for _, e := range entries {
			a := Arm(e.Score)
			if !found && e.ID == videoID && float64(a) == e.Score && a.Valid() {
				arm, found = a, true
				continue
			}
			kept = append(kept, e)
		}
		if !found {
			return cur, true // unrelated action: record unchanged
		}
		if len(kept) == 0 {
			return nil, false // slate fully credited: retire the record
		}
		return kvstore.EncodeEntries(kept), true
	})
	if err != nil {
		return 0, false, fmt.Errorf("bandit: take attribution: %w", err)
	}
	return arm, found, nil
}

// Attributions returns the user's currently attributed slate, oldest slot
// first — a diagnostic read; only tests call it.
func (s *Store) Attributions(ctx context.Context, userID string) ([]Attribution, error) {
	raw, ok, err := s.kv.Get(ctx, kvstore.Key(s.attrNS, userID))
	if err != nil || !ok {
		return nil, err
	}
	entries, err := kvstore.DecodeEntries(raw)
	if err != nil {
		return nil, fmt.Errorf("bandit: corrupt attributions for %s: %w", userID, err)
	}
	out := make([]Attribution, 0, len(entries))
	for _, e := range entries {
		out = append(out, Attribution{Video: e.ID, Arm: Arm(e.Score)})
	}
	return out, nil
}
