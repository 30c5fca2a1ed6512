package recommend

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"vidrec/internal/bandit"
	"vidrec/internal/intern"
	"vidrec/internal/kvstore"
	"vidrec/internal/topn"
)

// slateCase is one input to the slate builder, as the serve path sees it
// after its store reads: the excluded ids, each candidate source's ids in
// source order (duplicates and overlaps allowed), the group's hot list in
// popularity order, every video's Eq. 2 score, and the request's knobs.
type slateCase struct {
	excluded  []string
	sim       []string
	ann       []string // nil: no ANN index
	hot       []string // distinct, like a stored hot list
	score     map[string]float64
	maxCand   int
	n         int
	hotShare  float64
	filtering bool
	explore   bool
	seed      uint64
}

// slateOutcome is what a builder serves for a case, plus how many times it
// asked the policy for an arm — the policy RNG is shared across requests, so
// a builder that picks once more or less changes every later slate.
type slateOutcome struct {
	Videos     []topn.Entry
	Arms       []bandit.Arm
	HotMerged  int
	Candidates int
	Picks      int
}

// stubPolicy picks uniformly from a seeded PCG and counts its picks.
type stubPolicy struct {
	rng   *rand.Rand
	picks int
}

func newStubPolicy(seed uint64) *stubPolicy {
	return &stubPolicy{rng: rand.New(rand.NewPCG(seed, 0x5eed))}
}

func (p *stubPolicy) Pick(*bandit.State) bandit.Arm {
	p.picks++
	return bandit.Arm(p.rng.IntN(bandit.NumArms))
}

// byteSource turns fuzz input into choices; an exhausted input reads zeros.
type byteSource []byte

func (b *byteSource) intn(n int) int {
	if n <= 1 {
		return 0
	}
	var v uint16
	if len(*b) >= 2 {
		v = binary.LittleEndian.Uint16(*b)
		*b = (*b)[2:]
	} else {
		*b = nil
	}
	return int(v) % n
}

// slateVideos names the generated cases' videos.
var slateVideos = func() (ids [250]string) {
	for i := range ids {
		ids[i] = fmt.Sprintf("v%03d", i)
	}
	return ids
}()

// genSlateCase derives a case from src. The videos come from a universe of
// up to 250 ids, so every source overlaps the others and the exclusions;
// scores take one of five values, so ties are common; N runs from 1 to well
// past everything the pools hold.
func genSlateCase(src *byteSource) slateCase {
	universe := 1 + src.intn(len(slateVideos))
	video := func() string { return slateVideos[src.intn(universe)] }
	ids := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = video()
		}
		return out
	}
	c := slateCase{
		maxCand:   1 + src.intn(200),
		hotShare:  float64(src.intn(101)) / 100,
		filtering: src.intn(4) != 0,
		explore:   src.intn(2) == 1,
		seed:      uint64(src.intn(1 << 16)),
		score:     map[string]float64{},
	}
	c.excluded = ids(src.intn(20))
	c.sim = ids(src.intn(300))
	if src.intn(2) == 1 {
		c.ann = ids(src.intn(80))
	}
	seen := map[string]bool{}
	for _, id := range ids(src.intn(120)) {
		if !seen[id] {
			seen[id] = true
			c.hot = append(c.hot, id)
		}
	}
	for _, id := range slateVideos[:universe] {
		c.score[id] = float64(src.intn(5)) - 1.5
	}
	c.n = 1 + src.intn(2*(c.maxCand+len(c.hot))+10)
	return c
}

// caseReader serves a case's ANN and hot sources to gather in place of the
// store reads: the ANN hits as interned slots, the hot list cut to the
// length gather asks for.
type caseReader struct {
	c  slateCase
	in *intern.Table
}

func (r caseReader) annProbe(_ context.Context, _ string, dst []int32) ([]int32, error) {
	return r.in.Slots(r.c.ann, dst[:0]), nil
}

func (r caseReader) hotFor(_ context.Context, _ string, k int, _ time.Time, dst []topn.Entry) ([]topn.Entry, error) {
	for _, id := range r.c.hot[:min(len(r.c.hot), k)] {
		dst = append(dst, topn.Entry{ID: id})
	}
	return dst, nil
}

// buildSlate serves c through the slate builder the way personalized does,
// on a pooled scratch and a shared interner: the same N cap, the same
// gather, hot-merge sizing and draw, with the case's lists in place of the
// store reads. The hot list is as long as its capacity.
func buildSlate(scr *serveScratch, in *intern.Table, c slateCase) slateOutcome {
	o := Options{MaxCandidates: c.maxCand, HotCapacity: len(c.hot), HotShare: c.hotShare, DemographicFiltering: c.filtering}
	n := o.slateCap(c.n)
	scr.reset()
	numCand, want, err := scr.gather(context.Background(), caseReader{c, in}, in, o, &sources{watched: c.excluded, sim: c.sim, n: n})
	if err != nil {
		panic(err) // caseReader never fails
	}
	scr.scores = scr.scores[:0]
	for _, id := range scr.ids {
		scr.scores = append(scr.scores, c.score[id])
	}
	out := slateOutcome{Candidates: numCand, HotMerged: scr.merge(numCand, n, want)}
	if !c.explore {
		out.Videos = scr.entries()
		return out
	}
	policy := newStubPolicy(c.seed)
	arms, pulls := scr.explore(n, policy, &bandit.State{})
	out.Videos, out.Arms, out.HotMerged, out.Picks = scr.entries(), arms, pulls[bandit.ArmHot], policy.picks
	return out
}

// referenceSlate is the serve path's slate as it stood before the builder:
// string-keyed exclusion and dedup, a hotIdx table beside the hot list, the
// id-keyed topn.Ranker, the hot merge against an inList set, and one walk
// per arm (referenceArmNext). N is taken as given.
func referenceSlate(c slateCase) slateOutcome {
	marks := map[string]int{}
	excludeLen := 0
	for _, id := range c.excluded {
		if _, ok := marks[id]; !ok {
			marks[id] = markExcluded
			excludeLen++
		}
	}
	var candidates []string
	for _, id := range c.sim {
		if _, ok := marks[id]; ok {
			continue
		}
		marks[id] = len(candidates)
		candidates = append(candidates, id)
		if len(candidates) >= c.maxCand {
			break
		}
	}
	annStart := len(candidates)
	if c.ann != nil && len(candidates) < c.maxCand {
		for _, id := range c.ann {
			if _, ok := marks[id]; ok {
				continue
			}
			marks[id] = len(candidates)
			candidates = append(candidates, id)
			if len(candidates) >= c.maxCand {
				break
			}
		}
	}
	rankedLen := min(c.n, len(candidates))
	want := 0
	if c.filtering {
		want = int(c.hotShare * float64(c.n))
		if deficit := c.n - rankedLen; deficit > want {
			want = deficit
		}
	}
	var hot []topn.Entry
	numCand := len(candidates)
	toScore := candidates
	var hotIdx []int
	if want > 0 {
		for _, id := range c.hot[:min(len(c.hot), c.n+excludeLen)] {
			hot = append(hot, topn.Entry{ID: id})
			m, ok := marks[id]
			switch {
			case ok && m == markExcluded:
				hotIdx = append(hotIdx, -1)
			case ok:
				hotIdx = append(hotIdx, m)
			default:
				hotIdx = append(hotIdx, len(toScore))
				toScore = append(toScore, id)
			}
		}
	}
	scores := make([]float64, len(toScore))
	for i, id := range toScore {
		scores[i] = c.score[id]
	}
	ranker := topn.NewRanker(c.n)
	for i := 0; i < numCand; i++ {
		ranker.Push(toScore[i], scores[i])
	}
	videos := ranker.All()
	hotMerged := 0
	if want > 0 {
		inList := map[string]bool{}
		for _, e := range videos {
			inList[e.ID] = true
		}
		var merged []topn.Entry
		for i, e := range hot {
			if len(merged) == want {
				break
			}
			if hotIdx[i] < 0 || inList[e.ID] {
				continue
			}
			merged = append(merged, topn.Entry{ID: e.ID, Score: scores[hotIdx[i]]})
		}
		if keep := c.n - len(merged); len(videos) > keep {
			videos = videos[:keep]
		}
		videos = append(videos, merged...)
		hotMerged = len(merged)
	}
	if !c.explore {
		return slateOutcome{Videos: videos, HotMerged: hotMerged, Candidates: numCand}
	}
	policy := newStubPolicy(c.seed)
	st := bandit.State{}
	mf := videos[:len(videos)-hotMerged]
	inList := map[string]bool{}
	explored := make([]topn.Entry, 0, c.n)
	arms := make([]bandit.Arm, 0, c.n)
	var cursors, pulls [bandit.NumArms]int
	for len(explored) < c.n {
		filled := policy.Pick(&st)
		e, ok := referenceArmNext(filled, &cursors, inList, mf, hot, hotIdx, toScore, scores, annStart, numCand)
		for f := 0; f < bandit.NumArms && !ok; f++ {
			filled = bandit.Arm(f)
			e, ok = referenceArmNext(filled, &cursors, inList, mf, hot, hotIdx, toScore, scores, annStart, numCand)
		}
		if !ok {
			break
		}
		inList[e.ID] = true
		explored = append(explored, e)
		arms = append(arms, filled)
		pulls[filled]++
	}
	return slateOutcome{Videos: explored, Arms: arms, HotMerged: pulls[bandit.ArmHot], Candidates: numCand, Picks: policy.picks}
}

// referenceArmNext returns arm a's next unserved entry: ArmMF walks the
// merge-cut MF rank, ArmSim the candidates [0, annStart), ArmANN the
// candidates [annStart, numCand), ArmHot the hot list skipping excluded
// entries (hotIdx < 0).
func referenceArmNext(a bandit.Arm, cursors *[bandit.NumArms]int, inList map[string]bool,
	mf, hot []topn.Entry, hotIdx []int, toScore []string, scores []float64, annStart, numCand int) (topn.Entry, bool) {
	switch a {
	case bandit.ArmMF:
		for cursors[a] < len(mf) {
			e := mf[cursors[a]]
			cursors[a]++
			if !inList[e.ID] {
				return e, true
			}
		}
	case bandit.ArmSim:
		for cursors[a] < annStart {
			i := cursors[a]
			cursors[a]++
			if !inList[toScore[i]] {
				return topn.Entry{ID: toScore[i], Score: scores[i]}, true
			}
		}
	case bandit.ArmANN:
		for annStart+cursors[a] < numCand {
			i := annStart + cursors[a]
			cursors[a]++
			if !inList[toScore[i]] {
				return topn.Entry{ID: toScore[i], Score: scores[i]}, true
			}
		}
	case bandit.ArmHot:
		for cursors[a] < len(hotIdx) {
			i := cursors[a]
			cursors[a]++
			if hotIdx[i] >= 0 && !inList[hot[i].ID] {
				return topn.Entry{ID: hot[i].ID, Score: scores[hotIdx[i]]}, true
			}
		}
	}
	return topn.Entry{}, false
}

// slateSeedCases is how many generated cases seed FuzzSlateMatchesReference;
// a plain `go test` runs every one of them.
const slateSeedCases = 10000

// FuzzSlateMatchesReference holds the slate builder — admission into the
// scored batch, the position rank, the hot merge and the explore draw — to
// the reference on every generated case: the same videos with the same
// scores in the same order, the same arm tags, hot count and candidate count,
// and the same number of policy picks. Each case is served twice on one
// scratch, the second time over the first's stale marks and pools.
func FuzzSlateMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewPCG(1, 2))
	for range slateSeedCases {
		seed := make([]byte, 1600)
		for i := range seed {
			seed[i] = byte(rng.Uint32())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		c := genSlateCase(&src)
		want := referenceSlate(c)
		scr, in := new(serveScratch), intern.New()
		for pass := range 2 {
			if got := buildSlate(scr, in, c); !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d: case %+v\nbuilder   %+v\nreference %+v", pass, c, got, want)
			}
		}
	})
}

// TestHugeNServesThePoolsCapacity: an N no pool can fill serves exactly what
// N = 100,000 serves — on the personalized, explored and degraded paths —
// instead of sizing anything by it.
func TestHugeNServesThePoolsCapacity(t *testing.T) {
	ctx := context.Background()
	strip := func(res *Result) Result {
		r := *res
		r.Latency = 0
		return r
	}
	for _, path := range []string{"personalized", "explored", "degraded"} {
		t.Run(path, func(t *testing.T) {
			serve := func(n int) Result {
				var sys *System
				switch path {
				case "personalized":
					sys = testSystem(t, DefaultOptions())
					seedExploreSystem(t, sys)
				case "explored":
					sys = testSystem(t, exploreOptions())
					seedExploreSystem(t, sys)
				default:
					var faulty *kvstore.Faulty
					sys, faulty = degradedSystem(t, DefaultOptions())
					modelBlackout(faulty)
				}
				res, err := sys.Recommend(ctx, Request{UserID: "u1", N: n})
				if err != nil {
					t.Fatal(err)
				}
				if res.Degraded != (path == "degraded") || res.Explored != (path == "explored") {
					t.Fatalf("N=%d: Degraded=%v Explored=%v on the %s path", n, res.Degraded, res.Explored, path)
				}
				return strip(res)
			}
			want := serve(100_000)
			if len(want.Videos) == 0 {
				t.Fatal("empty slate at N=100000")
			}
			for _, n := range []int{1 << 40, math.MaxInt} {
				if got := serve(n); !reflect.DeepEqual(got, want) {
					t.Errorf("N=%d serves %+v, N=100000 serves %+v", n, got, want)
				}
			}
		})
	}
}
