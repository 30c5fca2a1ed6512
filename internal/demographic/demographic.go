// Package demographic implements the paper's two production optimizations
// (§5.2): demographic filtering — per-group hot-video lists merged into the
// MF results to broaden recommendations and cover new or inactive users —
// and demographic training — running the full recommendation algorithm
// within each demographic group, yielding denser matrices and finer-grained
// models (the Table 4 / Figure 3 experiments).
//
// Users are clustered by the properties the paper names: gender, age and
// education. Unregistered users — a large share of a video site's traffic —
// have no profile and fall into the global group, which is also every
// group's fallback ("for new unregistered users, we generate the hot videos
// of global demographic group").
package demographic

import (
	"context"
	"fmt"
	"strings"

	"vidrec/internal/kvstore"
	"vidrec/internal/objcache"
)

// GlobalGroup is the catch-all demographic group: unregistered users,
// unknown profiles, and the site-wide aggregates.
const GlobalGroup = "global"

// Gender is a coarse profile attribute.
type Gender uint8

// Gender values.
const (
	GenderUnknown Gender = iota
	GenderMale
	GenderFemale
)

// String returns the attribute's group-key token.
func (g Gender) String() string {
	switch g {
	case GenderMale:
		return "m"
	case GenderFemale:
		return "f"
	default:
		return "?"
	}
}

// AgeBand buckets user age; bands rather than raw ages keep the group count
// at the paper's "dozens".
type AgeBand uint8

// AgeBand values.
const (
	AgeUnknown AgeBand = iota
	AgeUnder18
	Age18to24
	Age25to34
	Age35to49
	Age50Plus
)

// String returns the attribute's group-key token.
func (a AgeBand) String() string {
	switch a {
	case AgeUnder18:
		return "u18"
	case Age18to24:
		return "18-24"
	case Age25to34:
		return "25-34"
	case Age35to49:
		return "35-49"
	case Age50Plus:
		return "50+"
	default:
		return "?"
	}
}

// AgeBandOf buckets a raw age.
func AgeBandOf(years int) AgeBand {
	switch {
	case years <= 0:
		return AgeUnknown
	case years < 18:
		return AgeUnder18
	case years < 25:
		return Age18to24
	case years < 35:
		return Age25to34
	case years < 50:
		return Age35to49
	default:
		return Age50Plus
	}
}

// Education is a coarse profile attribute.
type Education uint8

// Education values.
const (
	EduUnknown Education = iota
	EduSecondary
	EduBachelor
	EduPostgraduate
)

// String returns the attribute's group-key token.
func (e Education) String() string {
	switch e {
	case EduSecondary:
		return "sec"
	case EduBachelor:
		return "ba"
	case EduPostgraduate:
		return "pg"
	default:
		return "?"
	}
}

// Profile is one user's demographic record.
type Profile struct {
	UserID     string
	Registered bool
	Gender     Gender
	Age        AgeBand
	Education  Education
}

// Group derives the demographic group key. Unregistered users and fully
// unknown profiles map to the global group.
func (p Profile) Group() string {
	if !p.Registered {
		return GlobalGroup
	}
	if p.Gender == GenderUnknown && p.Age == AgeUnknown && p.Education == EduUnknown {
		return GlobalGroup
	}
	return p.Gender.String() + ":" + p.Age.String() + ":" + p.Education.String()
}

// Profiles is a kvstore-backed user profile table.
type Profiles struct {
	kv    kvstore.Store
	ns    string
	keys  *kvstore.Keys   // memoized ns-qualified keys (user-id-bounded)
	cache *objcache.Cache // nil disables the decoded-profile read cache
}

// SetCache attaches a decoded-value read cache for profile records. The cache
// must wrap the same store via objcache.WrapStore so Put invalidates it.
func (p *Profiles) SetCache(c *objcache.Cache) { p.cache = c }

// NewProfiles returns a profile table under the given namespace.
func NewProfiles(name string, kv kvstore.Store) (*Profiles, error) {
	if name == "" {
		return nil, fmt.Errorf("demographic: name must not be empty")
	}
	if kv == nil {
		return nil, fmt.Errorf("demographic: store must not be nil")
	}
	ns := name + ".prof"
	return &Profiles{kv: kv, ns: ns, keys: kvstore.NewKeys(ns)}, nil
}

// Put stores a profile.
func (p *Profiles) Put(ctx context.Context, prof Profile) error {
	if prof.UserID == "" {
		return fmt.Errorf("demographic: user id must not be empty")
	}
	reg := "0"
	if prof.Registered {
		reg = "1"
	}
	enc := kvstore.EncodeStrings([]string{
		reg,
		fmt.Sprintf("%d", prof.Gender),
		fmt.Sprintf("%d", prof.Age),
		fmt.Sprintf("%d", prof.Education),
	})
	if err := p.kv.Set(ctx, kvstore.Key(p.ns, prof.UserID), enc); err != nil {
		return fmt.Errorf("demographic: put %s: %w", prof.UserID, err)
	}
	return nil
}

// Get fetches a profile, reporting whether one exists. Profiles are small
// value structs, so the cached copy is returned by value — no aliasing. A
// cache hit returns without building the loader closure.
func (p *Profiles) Get(ctx context.Context, userID string) (Profile, bool, error) {
	key := p.keys.Key(userID)
	if p.cache != nil {
		if tv, present, ok := p.cache.Lookup(key); ok {
			if !present {
				return Profile{}, false, nil
			}
			return tv.(Profile), true, nil
		}
	}
	return objcache.Cached(p.cache, key, func() (Profile, bool, error) {
		raw, ok, err := p.kv.Get(ctx, key)
		if err != nil {
			return Profile{}, false, fmt.Errorf("demographic: get %s: %w", userID, err)
		}
		if !ok {
			return Profile{}, false, nil
		}
		fields, err := kvstore.DecodeStrings(raw)
		if err != nil || len(fields) != 4 {
			return Profile{}, false, fmt.Errorf("demographic: corrupt profile for %s: %v", userID, err)
		}
		var g, a, e int
		fmt.Sscanf(strings.Join(fields[1:], " "), "%d %d %d", &g, &a, &e)
		return Profile{
			UserID:     userID,
			Registered: fields[0] == "1",
			Gender:     Gender(g),
			Age:        AgeBand(a),
			Education:  Education(e),
		}, true, nil
	})
}

// GroupOf resolves a user's demographic group, defaulting to the global
// group for users without a stored profile (unregistered traffic).
func (p *Profiles) GroupOf(ctx context.Context, userID string) (string, error) {
	prof, ok, err := p.Get(ctx, userID)
	if err != nil {
		return "", err
	}
	if !ok {
		return GlobalGroup, nil
	}
	return prof.Group(), nil
}
