package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"vidrec/internal/bandit"
	"vidrec/internal/core"
	"vidrec/internal/dataset"
	"vidrec/internal/kvstore"
	"vidrec/internal/recommend"
	"vidrec/internal/simtable"
	"vidrec/internal/storm"
	"vidrec/internal/topn"
)

// maxViolations caps the breaches one checker reports: a systematic bug
// would otherwise flood test output with thousands of identical lines.
const maxViolations = 25

// violations accumulates breach descriptions up to maxViolations.
type violations struct {
	list    []string
	dropped int
}

func (v *violations) addf(format string, args ...any) {
	if len(v.list) >= maxViolations {
		v.dropped++
		return
	}
	v.list = append(v.list, fmt.Sprintf(format, args...))
}

func (v *violations) result() []string {
	if v.dropped > 0 {
		v.list = append(v.list, fmt.Sprintf("(%d further violations suppressed)", v.dropped))
	}
	return v.list
}

// checkConservation verifies acker accounting: on a tracked run every
// spouted tuple's tree was acked or failed exactly once, and the acker holds
// no unresolved trees after shutdown.
func checkConservation(sc Scenario, topo *storm.Topology, rep *Report) []string {
	var v violations
	if rep.Unresolved != 0 {
		v.addf("conservation: %d tuple trees neither acked nor failed at shutdown", rep.Unresolved)
	}
	if rep.Actions > 0 && rep.Spouted == 0 {
		v.addf("conservation: %d actions replayed but spout emitted nothing", rep.Actions)
	}
	if rep.Spouted > uint64(rep.Actions) {
		v.addf("conservation: spout emitted %d tuples from %d actions", rep.Spouted, rep.Actions)
	}
	if sc.Tracked {
		if rep.Acked+rep.FailedTrees != rep.Spouted {
			v.addf("conservation: acked %d + failed %d != spouted %d", rep.Acked, rep.FailedTrees, rep.Spouted)
		}
	}
	return v.result()
}

// splitStateKey parses a store key into its component kind (the suffix after
// the namespace's last dot: "uv", "sim", "hist", ...) and record id.
// Splitting at the first ':' cannot do this: demographic group names embed ':'
// ("m:18-24:ba"), so the first ':' of a group-scoped key sits inside the
// namespace. Ids and group names never contain '.', which makes the last dot
// an unambiguous anchor.
func splitStateKey(key string) (kind, id string, ok bool) {
	dot := strings.LastIndex(key, ".")
	if dot < 0 {
		return "", "", false
	}
	rest := key[dot+1:]
	colon := strings.Index(rest, ":")
	if colon < 0 {
		return "", "", false
	}
	return rest[:colon], rest[colon+1:], true
}

// checkStore sweeps every record in the backing store and verifies it
// decodes under its namespace's schema with finite, bounded contents — the
// finite_prop_test invariant extended from the model to the full pipeline:
// whatever faults were injected, nothing unparseable or non-finite may
// reach durable state.
func checkStore(ds *dataset.Dataset, base *kvstore.Local, params core.Params, opts recommend.Options, simCfg simtable.Config) []string {
	users := make(map[string]bool, len(ds.Users()))
	for _, u := range ds.Users() {
		users[u.ID] = true
	}
	videos := make(map[string]bool, len(ds.Videos()))
	for _, vd := range ds.Videos() {
		videos[vd.Meta.ID] = true
	}

	var v violations
	base.ForEach(func(key string, val []byte) bool {
		kind, id, ok := splitStateKey(key)
		if !ok {
			v.addf("store: key %q does not parse as <ns>.<kind>:<id>", key)
			return true
		}
		switch kind {
		case "uv", "iv":
			vec, err := kvstore.DecodeFloats(val)
			if err != nil {
				v.addf("store: %s: corrupt vector: %v", key, err)
				return true
			}
			if len(vec) != params.Factors {
				v.addf("store: %s: vector has %d factors, want %d", key, len(vec), params.Factors)
			}
			checkFinite(&v, key, vec)
			if kind == "uv" && !users[id] {
				v.addf("store: %s: user vector for unknown user", key)
			}
			if kind == "iv" && !videos[id] {
				v.addf("store: %s: item vector for unknown video", key)
			}
		case "ub", "ib":
			b, err := kvstore.DecodeFloat(val)
			if err != nil {
				v.addf("store: %s: corrupt bias: %v", key, err)
				return true
			}
			checkFinite(&v, key, []float64{b})
			if kind == "ub" && !users[id] {
				v.addf("store: %s: user bias for unknown user", key)
			}
			if kind == "ib" && !videos[id] {
				v.addf("store: %s: item bias for unknown video", key)
			}
		case "meta":
			fs, err := kvstore.DecodeFloats(val)
			if err != nil {
				v.addf("store: %s: corrupt meta record: %v", key, err)
				return true
			}
			if id != "mean" {
				v.addf("store: %s: unexpected meta id %q", key, id)
			}
			if len(fs) != 2 {
				v.addf("store: %s: mean record has %d fields, want 2", key, len(fs))
			}
			checkFinite(&v, key, fs)
			if len(fs) == 2 && fs[1] < 0 {
				v.addf("store: %s: negative observation count %v", key, fs[1])
			}
		case "sim":
			entries, ok := checkStampedEntries(&v, key, val)
			if !ok {
				return true
			}
			if len(entries) > simCfg.TableSize {
				v.addf("store: %s: %d entries exceed table size %d", key, len(entries), simCfg.TableSize)
			}
			checkEntryList(&v, key, entries, videos, "video")
			if !videos[id] {
				v.addf("store: %s: similar table for unknown video", key)
			}
			for _, e := range entries {
				if e.ID == id {
					v.addf("store: %s: table lists its own video", key)
				}
			}
		case "hot":
			entries, ok := checkStampedEntries(&v, key, val)
			if !ok {
				return true
			}
			if len(entries) > opts.HotCapacity {
				v.addf("store: %s: %d entries exceed hot capacity %d", key, len(entries), opts.HotCapacity)
			}
			checkEntryList(&v, key, entries, videos, "video")
		case "hist":
			entries, err := kvstore.DecodeEntries(val)
			if err != nil {
				v.addf("store: %s: corrupt history: %v", key, err)
				return true
			}
			if len(entries) > opts.HistoryLimit {
				v.addf("store: %s: %d events exceed history limit %d", key, len(entries), opts.HistoryLimit)
			}
			if !users[id] {
				v.addf("store: %s: history for unknown user", key)
			}
			for _, e := range entries {
				if !videos[e.ID] {
					v.addf("store: %s: history references unknown video %q", key, e.ID)
				}
				// Score carries the event's UnixMilli timestamp.
				if !saneUnixMilli(int64(e.Score)) {
					v.addf("store: %s: event timestamp %v out of range", key, e.Score)
				}
			}
		case "prof":
			if !users[id] {
				v.addf("store: %s: profile for unknown user", key)
			}
		case "video":
			fields, err := kvstore.DecodeStrings(val)
			if err != nil {
				v.addf("store: %s: corrupt catalog record: %v", key, err)
				return true
			}
			if len(fields) != 2 {
				v.addf("store: %s: catalog record has %d fields, want 2", key, len(fields))
			}
			if !videos[id] {
				v.addf("store: %s: catalog record for unknown video", key)
			}
		case "bandit":
			// DecodeState runs bandit.State.Validate: finite, non-negative,
			// wins never exceeding pulls.
			_, ms, err := bandit.DecodeState(val)
			if err != nil {
				v.addf("store: %s: corrupt bandit state: %v", key, err)
				return true
			}
			if id != "arms" {
				v.addf("store: %s: unexpected bandit record id %q", key, id)
			}
			if !saneUnixMilli(ms) {
				v.addf("store: %s: bandit stamp %d out of range", key, ms)
			}
		case "battr":
			entries, err := kvstore.DecodeEntries(val)
			if err != nil {
				v.addf("store: %s: corrupt attribution record: %v", key, err)
				return true
			}
			if !users[id] {
				v.addf("store: %s: attributions for unknown user", key)
			}
			for _, e := range entries {
				if !videos[e.ID] {
					v.addf("store: %s: attribution for unknown video %q", key, e.ID)
				}
				// Score carries the arm id: integral and a real arm.
				a := bandit.Arm(e.Score)
				if float64(a) != e.Score || !a.Valid() {
					v.addf("store: %s: attribution arm %v is not a valid arm id", key, e.Score)
				}
			}
		default:
			v.addf("store: %s: unknown record kind %q", key, kind)
		}
		return true
	})
	return v.result()
}

// checkStampedEntries validates the shared timestamp+entries layout used by
// similar tables and hot lists: an 8-byte UnixMilli stamp followed by an
// encoded entry list.
func checkStampedEntries(v *violations, key string, val []byte) ([]topn.Entry, bool) {
	if len(val) < 8 {
		v.addf("store: %s: record shorter than its timestamp prefix", key)
		return nil, false
	}
	ms, err := kvstore.DecodeInt64(val[:8])
	if err != nil {
		v.addf("store: %s: corrupt timestamp: %v", key, err)
		return nil, false
	}
	if !saneUnixMilli(ms) {
		v.addf("store: %s: timestamp %d out of range", key, ms)
	}
	entries, err := kvstore.DecodeEntries(val[8:])
	if err != nil {
		v.addf("store: %s: corrupt entry list: %v", key, err)
		return nil, false
	}
	return entries, true
}

// checkEntryList validates a ranked entry list: sorted by score descending,
// no duplicate ids, every id in the known universe, every score finite.
func checkEntryList(v *violations, key string, entries []topn.Entry, universe map[string]bool, what string) {
	seen := make(map[string]bool, len(entries))
	for i, e := range entries {
		if seen[e.ID] {
			v.addf("store: %s: duplicate %s %q", key, what, e.ID)
		}
		seen[e.ID] = true
		if !universe[e.ID] {
			v.addf("store: %s: unknown %s %q", key, what, e.ID)
		}
		if math.IsNaN(e.Score) || math.IsInf(e.Score, 0) {
			v.addf("store: %s: non-finite score for %q", key, e.ID)
		}
		if i > 0 && entries[i].Score > entries[i-1].Score {
			v.addf("store: %s: entries not sorted descending at index %d", key, i)
		}
	}
}

// checkFinite flags NaN or magnitude beyond core.MaxParamMagnitude.
func checkFinite(v *violations, key string, vals []float64) {
	for i, x := range vals {
		if math.IsNaN(x) || math.Abs(x) > core.MaxParamMagnitude {
			v.addf("store: %s: parameter %d is %v (bound %g)", key, i, x, float64(core.MaxParamMagnitude))
			return
		}
	}
}

// saneUnixMilli bounds a millisecond timestamp to [2000, 2100) — anything
// outside means a codec mix-up (seconds vs millis, or garbage bytes).
func saneUnixMilli(ms int64) bool {
	t := time.UnixMilli(ms)
	return t.Year() >= 2000 && t.Year() < 2100
}

// checkResults validates every served recommendation list: within the
// requested size, deduplicated, inside the catalog, finite scores, and the
// MF-ranked segment (everything before the demographic hot merge) sorted by
// predicted preference descending.
func checkResults(ds *dataset.Dataset, results []*recommend.Result, topN int) []string {
	videos := make(map[string]bool, len(ds.Videos()))
	for _, vd := range ds.Videos() {
		videos[vd.Meta.ID] = true
	}
	var v violations
	for ri, res := range results {
		if len(res.Videos) > topN {
			v.addf("results[%d]: %d entries exceed requested N=%d", ri, len(res.Videos), topN)
		}
		if res.HotMerged < 0 || res.HotMerged > len(res.Videos) {
			v.addf("results[%d]: HotMerged %d outside [0,%d]", ri, res.HotMerged, len(res.Videos))
			continue
		}
		seen := make(map[string]bool, len(res.Videos))
		for _, e := range res.Videos {
			if seen[e.ID] {
				v.addf("results[%d]: duplicate video %q", ri, e.ID)
			}
			seen[e.ID] = true
			if !videos[e.ID] {
				v.addf("results[%d]: video %q not in catalog", ri, e.ID)
			}
			if math.IsNaN(e.Score) || math.IsInf(e.Score, 0) {
				v.addf("results[%d]: non-finite score for %q", ri, e.ID)
			}
		}
		if res.Explored {
			// An explored slate is composed by the policy, not sorted — its
			// contract is the arm tagging: one valid arm per slot, and
			// HotMerged counting exactly the hot-armed slots.
			if len(res.Arms) != len(res.Videos) {
				v.addf("results[%d]: %d arm tags for %d videos", ri, len(res.Arms), len(res.Videos))
			}
			hot := 0
			for _, a := range res.Arms {
				if !a.Valid() {
					v.addf("results[%d]: invalid arm %d", ri, uint8(a))
				}
				if a == bandit.ArmHot {
					hot++
				}
			}
			if len(res.Arms) == len(res.Videos) && res.HotMerged != hot {
				v.addf("results[%d]: HotMerged %d but %d hot-armed slots", ri, res.HotMerged, hot)
			}
			if res.Degraded {
				v.addf("results[%d]: response both Degraded and Explored — degraded serving must never sample", ri)
			}
		} else {
			if res.Arms != nil {
				v.addf("results[%d]: arm tags on an unexplored response", ri)
			}
			ranked := res.Videos[:len(res.Videos)-res.HotMerged]
			if !sort.SliceIsSorted(ranked, func(i, j int) bool { return ranked[i].Score > ranked[j].Score }) {
				v.addf("results[%d]: MF-ranked segment not sorted descending", ri)
			}
		}
		if res.Latency < 0 {
			v.addf("results[%d]: negative latency %v", ri, res.Latency)
		}
	}
	return v.result()
}

// checkLatency verifies serving-latency accounting under faults: exactly the
// successful Recommend calls are observed — errored requests return before
// the histogram, and nothing observes twice.
func checkLatency(sys *recommend.System, successes int) []string {
	var v violations
	if got := sys.Latency.Count(); got != uint64(successes) {
		v.addf("latency: histogram holds %d samples, want %d (one per successful request)", got, successes)
	}
	return v.result()
}
