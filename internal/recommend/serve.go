package recommend

import (
	"context"
	"fmt"
	"time"

	"vidrec/internal/bandit"
	"vidrec/internal/demographic"
	"vidrec/internal/topn"
)

// Request is one recommendation query.
type Request struct {
	// UserID identifies the requesting user (possibly unknown/unregistered).
	UserID string
	// CurrentVideo, when set, is the video the user is watching — the
	// "related videos" scenario of Figure 6(b). When empty, the user's
	// recent history seeds the expansion — "Guess you like", Figure 6(a).
	CurrentVideo string
	// N is the list length to return.
	N int
}

// Result is a ranked recommendation list with provenance counters.
type Result struct {
	// Videos is the final ranked list: predicted preference (Eq. 2)
	// descending for the MF-sourced part, followed by the demographic
	// hot-video merge.
	Videos []topn.Entry
	// Seeds is the number of seed videos used.
	Seeds int
	// Candidates is how many distinct candidates the similar tables and
	// the ANN probe (when Options.ANN is on) produced before ranking.
	Candidates int
	// HotMerged counts entries contributed by demographic filtering.
	HotMerged int
	// Degraded marks a fallback response: the personalized path failed on
	// storage errors and the list is the demographic hot list (filtered
	// against whatever history was still readable) instead of MF-ranked
	// candidates. Serving stayed up; quality, not availability, degraded.
	Degraded bool
	// Explored marks a slate re-ranked through the bandit policy
	// (Options.Explore). Degraded responses are never explored.
	Explored bool
	// Arms tags each slot of an explored slate with the candidate source
	// that filled it (parallel to Videos; nil unless Explored).
	Arms []bandit.Arm
	// Latency is the end-to-end serving time.
	Latency time.Duration
}

// markExcluded is the mark value for history/current-video exclusions;
// non-negative marks are candidate indexes into the toScore batch.
const markExcluded = -1

// serveScratch is per-request working memory recycled across Recommend calls
// through System.scratch. Nothing stored here may escape into a Result: ids
// are immutable string headers owned by the cache or the store decode, and
// every slice that escapes (the ranked list) is freshly allocated.
//
// Candidate bookkeeping runs on intern slots instead of string-keyed maps:
// ids are batch-resolved to dense slots once per source (one interner RLock
// per batch), and dedup/exclusion is a generation-stamped array lookup. The
// warm-path profile that motivated this showed the per-candidate map churn —
// hashing, assignment, growth — dominating the request; the mark arrays turn
// all of it into integer indexing.
type serveScratch struct {
	flat      []string // id scratch for batch slot resolution (sim entries, hot list)
	slots     []int32  // slot scratch parallel to flat (also: watched slots)
	ids       []string // the toScore batch: candidates, then merge-eligible hot
	candSlots []int32  // slots parallel to ids
	probe     []int32  // ANN probe output
	scores    []float64
	hot       []topn.Entry // hot-list scratch (damped copy-out target)
	marks     []int32      // per intern slot: markExcluded or candidate index
	markGen   []uint32     // generation stamp validating marks[slot]
	gen       uint32
	hotIdx    []int
	merged    []topn.Entry
	inList    map[string]bool
	ranker    *topn.Ranker // reused ranking scratch; rebuilt when req.N changes
}

// nextGen starts a fresh mark generation, clearing stamps on wrap so a
// four-billion-requests-old mark can never read as current.
func (scr *serveScratch) nextGen() {
	scr.gen++
	if scr.gen == 0 {
		clear(scr.markGen)
		scr.gen = 1
	}
}

// growMarks ensures the mark arrays cover slots [0, n). Backing beyond the
// copied prefix is freshly zeroed, and generation 0 is never current, so
// grown slots read as unmarked.
func (scr *serveScratch) growMarks(n int) {
	if n <= len(scr.marks) {
		return
	}
	if n <= cap(scr.marks) && n <= cap(scr.markGen) {
		scr.marks = scr.marks[:n]
		scr.markGen = scr.markGen[:n]
		return
	}
	marks := make([]int32, n, 2*n) // alloccheck: catalog-bounded grow-once; the pooled scratch is reused
	copy(marks, scr.marks)
	gens := make([]uint32, n, 2*n) // alloccheck: catalog-bounded grow-once; the pooled scratch is reused
	copy(gens, scr.markGen)
	scr.marks, scr.markGen = marks, gens
}

// Recommend runs the full Figure 1 pipeline for one request: the
// personalized path (seed expansion → Eq. 2 scoring → ranking → hot merge),
// and — when that path fails on storage errors and Options.DegradedFallback
// is on — the demographic fallback, which serves the group's hot list so the
// request degrades in quality instead of erroring. Validation failures never
// fall back, and if the fallback cannot be built either, the personalized
// path's error is the one returned.
//
// hotpath: the warm serving budget (18 allocs, sub-10µs quantized) is enforced from here
func (s *System) Recommend(ctx context.Context, req Request) (*Result, error) {
	start := s.wallClock()
	if req.N <= 0 {
		return nil, fmt.Errorf("recommend: N must be positive, got %d", req.N)
	}
	if req.UserID == "" {
		return nil, fmt.Errorf("recommend: user id must not be empty")
	}
	now := s.Now()
	group := s.groupOf(ctx, req.UserID)

	res, err := s.personalized(ctx, req, group, now)
	if err != nil && s.opts.DegradedFallback {
		if deg, derr := s.degraded(ctx, req, group, now); derr == nil {
			res, err = deg, nil
		}
	}
	if err != nil {
		return nil, err
	}
	elapsed := s.wallClock().Sub(start)
	s.Latency.Observe(elapsed)
	res.Latency = elapsed
	return res, nil
}

// personalized is the MF-ranked serving path.
//
// The store round trips are batched to a constant per request regardless of
// seed or candidate count: one history fetch serves both seeding and the
// exclusion set, all seeds' similar lists share one MGet (SimilarBatch), and
// candidate scoring plus the hot-merge re-score fold into a single scoring
// batch. Per-item scores under Eq. 2 are independent of what else is in the
// batch, so the folded call ranks identically to scoring the two sets
// separately; with the decoded-value cache warm the whole request runs with
// zero store round trips.
//
// Dedup and exclusion run on intern slots: watched videos are marked
// excluded up front (one batch resolve over the ~tens-deep history instead
// of a map probe per candidate), each candidate source's ids resolve in one
// batch, and admission is a mark-array read. Ranking uses topn.Ranker —
// List's semantics without its id map — because the batch is distinct by
// construction.
func (s *System) personalized(ctx context.Context, req Request, group string, now time.Time) (*Result, error) {
	scr, _ := s.scratch.Get().(*serveScratch)
	if scr == nil {
		scr = &serveScratch{inList: make(map[string]bool, 16)} // alloccheck: pool miss, cold start only
	}
	defer s.scratch.Put(scr)
	scr.nextGen()
	gen := scr.gen

	// 1. One history fetch serves every consumer: the prefix of the cached
	// video list seeds the expansion ("Guess you like") and the watched set
	// becomes the exclusion marks — never recommend anything the user
	// already watched; re-serving watched content wastes slots and triggers
	// fatigue. When a current video is given it is the sole seed and a
	// history fetch failure only shrinks the exclusion set (as before).
	watched, histSet, histErr := s.History.Watched(ctx, req.UserID, s.opts.HistoryLimit)
	var seeds []string
	if req.CurrentVideo != "" {
		seeds = []string{req.CurrentVideo} // alloccheck: single-element seed slice (warm budget)
	} else {
		if histErr != nil {
			return nil, histErr
		}
		seeds = watched
		if len(seeds) > s.opts.SeedCount {
			seeds = seeds[:s.opts.SeedCount]
		}
	}
	wslots := s.interner.Slots(watched, scr.slots[:0])
	scr.slots = wslots[:0]
	scr.growMarks(s.interner.Len())
	excludeLen := 0
	for _, sl := range wslots {
		if scr.markGen[sl] != gen {
			scr.markGen[sl] = gen
			scr.marks[sl] = markExcluded
			excludeLen++
		}
	}
	if excludeLen < len(histSet) {
		// The distinct-video view was truncated below the membership set (a
		// history limit above the serve window — non-default configs); fold
		// the remainder in so the exclusion still covers everything watched.
		// alloccheck: defensive fold-in for non-default history limits, never taken when the serve window equals the store limit (the default)
		for id := range histSet {
			sl := s.interner.Slot(id)
			scr.growMarks(s.interner.Len())
			if scr.markGen[sl] != gen {
				scr.markGen[sl] = gen
				scr.marks[sl] = markExcluded
			}
		}
		excludeLen = len(histSet)
	}
	if req.CurrentVideo != "" {
		sl := s.interner.Slot(req.CurrentVideo)
		scr.growMarks(s.interner.Len())
		if scr.markGen[sl] != gen {
			scr.markGen[sl] = gen
			scr.marks[sl] = markExcluded
			excludeLen++
		}
	}

	// 2. Candidate expansion through the group's similar-video tables
	// (fall back to the global tables when group training is off). All
	// seeds' lists arrive in one batched fetch; their ids resolve to slots
	// in one batched intern pass; dedup preserves seed order.
	tableGroup := group
	if !s.opts.DemographicTraining {
		tableGroup = demographic.GlobalGroup
	}
	tables, err := s.Tables.For(tableGroup)
	if err != nil {
		return nil, err
	}
	flat, err := tables.SimilarIDs(ctx, seeds, s.opts.CandidatesPerSeed, now, scr.flat[:0])
	if err != nil {
		return nil, err
	}
	scr.flat = flat
	slots := s.interner.Slots(flat, scr.slots[:0])
	scr.growMarks(s.interner.Len())
	candidates := scr.ids[:0]
	candSlots := scr.candSlots[:0]
	for i, id := range flat {
		sl := slots[i]
		if scr.markGen[sl] == gen {
			continue // excluded, or already a candidate
		}
		scr.markGen[sl] = gen
		scr.marks[sl] = int32(len(candidates))
		candidates = append(candidates, id)
		candSlots = append(candSlots, sl) // alloccheck: grow-once; candSlots extends the pooled scratch
		if len(candidates) >= s.opts.MaxCandidates {
			break
		}
	}
	scr.flat = flat[:0]
	scr.slots = slots[:0]

	// 2b. ANN retrieval (Options.ANN): probe the LSH index with the user's
	// global factor vector and append whatever the matching buckets hold,
	// after the sim expansion and under the same candidate cap. The probe
	// returns slots — cross-table duplicates included — and the mark array
	// absorbs them like any other dup. Unknown users skip the probe: their
	// cold-start vector would hash to arbitrary buckets.
	annStart := len(candidates)
	if s.annIndex != nil && len(candidates) < s.opts.MaxCandidates {
		uvec, _, known, err := s.global.UserVector(ctx, req.UserID)
		if err != nil {
			return nil, err
		}
		if known {
			probe := s.annIndex.Probe(uvec, scr.probe)
			scr.probe = probe
			pids := s.interner.IDs(probe, scr.flat[:0])
			scr.flat = pids[:0]
			scr.growMarks(s.interner.Len())
			for i, sl := range probe {
				if scr.markGen[sl] == gen {
					continue
				}
				scr.markGen[sl] = gen
				scr.marks[sl] = int32(len(candidates))
				candidates = append(candidates, pids[i])
				candSlots = append(candSlots, sl)
				if len(candidates) >= s.opts.MaxCandidates {
					break
				}
			}
		}
	}

	// 3. Decide the hot merge *before* scoring so the re-score can join the
	// candidate batch. The ranked list's length is known without scores —
	// the ranker keeps min(N, len(candidates)) distinct entries — so the
	// wanted slot count (the HotShare reserve, or every slot MF cannot
	// fill) is computable now.
	model, err := s.Models.For(tableGroup)
	if err != nil {
		return nil, err
	}
	rankedLen := min(req.N, len(candidates))
	want := 0
	if s.opts.DemographicFiltering {
		want = int(s.opts.HotShare * float64(req.N))
		if deficit := req.N - rankedLen; deficit > want {
			want = deficit
		}
	}
	var hot []topn.Entry
	numCand := len(candidates)
	toScore := candidates
	toScoreSlots := candSlots
	hotIdx := scr.hotIdx[:0]
	if want > 0 {
		hot, err = s.hotFor(ctx, group, req.N+excludeLen, now, scr.hot[:0])
		scr.hot = hot[:0]
		if err != nil {
			return nil, err
		}
		// Hot videos that are neither excluded nor already candidates may
		// be merged below; score them in the same batch. (Hot videos that
		// ARE candidates reuse their candidate score — Eq. 2 is per-item,
		// so the score is the same either way.) hotIdx remembers where each
		// hot entry's score will land so the merge needs no id→score map.
		flat = scr.flat[:0]
		for _, e := range hot {
			flat = append(flat, e.ID)
		}
		slots = s.interner.Slots(flat, scr.slots[:0])
		scr.flat, scr.slots = flat[:0], slots[:0]
		scr.growMarks(s.interner.Len())
		for i := range hot {
			sl := slots[i]
			switch {
			case scr.markGen[sl] == gen && scr.marks[sl] == markExcluded:
				hotIdx = append(hotIdx, -1)
			case scr.markGen[sl] == gen:
				hotIdx = append(hotIdx, int(scr.marks[sl]))
			default:
				hotIdx = append(hotIdx, len(toScore))
				toScore = append(toScore, hot[i].ID) // alloccheck: toScore extends the pooled scr.ids scratch
				toScoreSlots = append(toScoreSlots, sl)
			}
		}
		scr.hotIdx = hotIdx
	}
	scr.ids = toScore[:0]
	scr.candSlots = toScoreSlots[:0]

	// 4. Preference prediction (Eq. 2) over candidates and merge-eligible
	// hot videos only — the whole corpus is never scored — then ranking.
	// The model scores from its slot-indexed item table (float or int8
	// records) through the batch's already-resolved slots, into the pooled
	// scores scratch. Ranking goes through the allocation-free Ranker, whose
	// admission semantics are pinned equal to topn.List's.
	scores, err := model.ScoreSlots(ctx, req.UserID, toScore, toScoreSlots, scr.scores)
	if err != nil {
		return nil, err
	}
	scr.scores = scores
	if scr.ranker == nil || scr.ranker.Limit() != req.N {
		scr.ranker = topn.NewRanker(req.N)
	} else {
		scr.ranker.Reset()
	}
	ranker := scr.ranker
	for i := 0; i < numCand; i++ {
		ranker.Push(toScore[i], scores[i])
	}
	videos := ranker.All()

	// 5. Demographic filtering: reserve part of the list for the group's
	// hot videos, and fill every slot MF could not (new users get a full
	// hot list — the paper's cold-start answer). Merged entries carry their
	// model score so every entry's Score has one meaning: predicted
	// preference (Eq. 2). The merge order (popularity) is preserved — that
	// is the DB algorithm's ranking for its slots.
	hotMerged := 0
	if want > 0 {
		inList := scr.inList
		clear(inList)
		for _, e := range videos {
			inList[e.ID] = true
		}
		merged := scr.merged[:0]
		for i, e := range hot {
			if len(merged) == want {
				break
			}
			if hotIdx[i] < 0 || inList[e.ID] {
				continue
			}
			merged = append(merged, topn.Entry{ID: e.ID, Score: scores[hotIdx[i]]})
		}
		scr.merged = merged
		if keep := req.N - len(merged); len(videos) > keep {
			videos = videos[:keep]
		}
		videos = append(videos, merged...)
		hotMerged = len(merged)
	}

	// 6. Exploration re-rank (Options.Explore): rebuild the slate slot by
	// slot, each slot drawn by the bandit policy from one of the arms —
	// the MF-ranked list, the sim-table expansion in seed order, the
	// demographic hot list in popularity order, the ANN probe in bucket
	// order. Every slot keeps its Eq. 2 score, so Score's meaning is
	// unchanged; only the composition moves with the posteriors. Pulls are
	// charged to the arm that actually filled the slot, and the slate's
	// attributions replace the user's previous breadcrumbs. Any storage
	// error here propagates, so a failed explore request falls into the
	// same degraded fallback as any other serving failure — and the
	// fallback never samples.
	if s.policy != nil {
		st, err := s.Bandit.State(ctx)
		if err != nil {
			return nil, err
		}
		mf := videos[:len(videos)-hotMerged]
		inList := scr.inList
		clear(inList)
		explored := make([]topn.Entry, 0, req.N) // alloccheck: explored slate escapes into the Result (explore budget)
		arms := make([]bandit.Arm, 0, req.N)     // alloccheck: arm tags escape into the Result (explore budget)
		var cursors, pulls [bandit.NumArms]int
		s.policyMu.Lock()
		for len(explored) < req.N {
			filled := s.policy.Pick(&st)
			e, ok := armNext(filled, &cursors, inList, mf, hot, hotIdx, toScore, scores, annStart, numCand)
			for f := 0; f < bandit.NumArms && !ok; f++ {
				// Picked arm exhausted: fall through the arms in fixed
				// order so the slate still fills; the filling arm takes
				// the pull (it did the serving work).
				filled = bandit.Arm(f)
				e, ok = armNext(filled, &cursors, inList, mf, hot, hotIdx, toScore, scores, annStart, numCand)
			}
			if !ok {
				break // every pool dry: the slate is as long as it can be
			}
			inList[e.ID] = true
			explored = append(explored, e)
			arms = append(arms, filled)
			pulls[filled]++
		}
		s.policyMu.Unlock()
		if err := s.Bandit.RecordPulls(ctx, &pulls, now); err != nil {
			return nil, err
		}
		if err := s.Bandit.Attribute(ctx, req.UserID, explored, arms); err != nil {
			return nil, err
		}
		return &Result{ // alloccheck: the returned Result is the API contract (explore budget)
			Videos:     explored,
			Seeds:      len(seeds),
			Candidates: numCand,
			HotMerged:  pulls[bandit.ArmHot],
			Explored:   true,
			Arms:       arms,
		}, nil
	}

	return &Result{ // alloccheck: the returned Result is the API contract (warm budget)
		Videos:     videos,
		Seeds:      len(seeds),
		Candidates: numCand,
		HotMerged:  hotMerged,
	}, nil
}

// armNext returns arm a's next unserved slate entry, advancing its cursor
// past entries already in the slate (inList) or excluded from the pool.
// Pools: ArmMF walks the MF-ranked list, ArmSim walks the similar-table
// expansion in seed order carrying its Eq. 2 score (candidates [0, annStart)),
// ArmANN walks the ANN-probed candidates in bucket order ([annStart,
// numCand)), ArmHot walks the hot list in popularity order carrying the score
// the fold assigned it (hotIdx < 0 marks hot entries the exclusion set
// removed). A package-level function rather than a closure: the explore loop
// calls it per slot inside the serving alloc budget.
func armNext(a bandit.Arm, cursors *[bandit.NumArms]int, inList map[string]bool,
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

// degraded builds the fallback response: the group's demographic hot list,
// filtered against whatever history is still readable (a failed history read
// only shrinks the exclusion set — re-serving a watched video beats serving
// an error) and against the video being watched. Everything it touches lives
// outside the model/simtable key namespace, so a total model outage leaves
// this path fully operational.
func (s *System) degraded(ctx context.Context, req Request, group string, now time.Time) (*Result, error) {
	_, histSet, histErr := s.History.Watched(ctx, req.UserID, s.opts.HistoryLimit)
	if histErr != nil {
		histSet = nil
	}
	hot, err := s.hotFor(ctx, group, req.N+len(histSet)+1, now, nil)
	if err != nil {
		return nil, err
	}
	videos := make([]topn.Entry, 0, min(req.N, len(hot))) // alloccheck: degraded path, availability fallback
	for _, e := range hot {
		if histSet[e.ID] || e.ID == req.CurrentVideo {
			continue
		}
		videos = append(videos, e)
		if len(videos) == req.N {
			break
		}
	}
	// HotMerged covers the whole list: every slot came from demographic
	// filtering, none from MF ranking.
	return &Result{Videos: videos, HotMerged: len(videos), Degraded: true}, nil // alloccheck: degraded path, availability fallback
}

// hotFor fetches the group's hot list into dst (pooled scratch on the warm
// path, nil from the degraded fallback), falling back to the global group
// when the group has none — "for new unregistered users, we generate the hot
// videos of global demographic group".
func (s *System) hotFor(ctx context.Context, group string, k int, now time.Time, dst []topn.Entry) ([]topn.Entry, error) {
	if group != demographic.GlobalGroup {
		hot, err := s.Hot.HotInto(ctx, group, k, now, dst)
		if err != nil {
			return nil, err
		}
		if len(hot) > 0 {
			return hot, nil
		}
		dst = hot
	}
	return s.Hot.HotInto(ctx, demographic.GlobalGroup, k, now, dst)
}

// RecommendIDs implements eval.Recommender over the history-seeded scenario.
func (s *System) RecommendIDs(ctx context.Context, userID string, n int) ([]string, error) {
	res, err := s.Recommend(ctx, Request{UserID: userID, N: n})
	if err != nil {
		return nil, err
	}
	out := make([]string, len(res.Videos))
	for i, e := range res.Videos {
		out[i] = e.ID
	}
	return out, nil
}

// EvalAdapter bridges a System into the ctx-free eval.Recommender interface
// the offline harness uses. Ctx is the run context every adapted call uses;
// a zero Ctx means context.Background() — acceptable for the offline
// harness, which sits outside the ctxcheck serving scope.
type EvalAdapter struct {
	S   *System
	Ctx context.Context
}

// Recommend implements eval.Recommender.
func (a EvalAdapter) Recommend(userID string, n int) ([]string, error) {
	ctx := a.Ctx
	if ctx == nil {
		// ctxcheck: offline-harness adapter; a zero Ctx means "no deadline"
		ctx = context.Background()
	}
	return a.S.RecommendIDs(ctx, userID, n)
}
