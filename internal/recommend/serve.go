package recommend

import (
	"context"
	"fmt"
	"math"
	"time"

	"vidrec/internal/bandit"
	"vidrec/internal/demographic"
	"vidrec/internal/intern"
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
// non-negative marks are positions in the scored batch.
const markExcluded = -1

// serveScratch is per-request working memory recycled across Recommend calls
// through System.scratch. Nothing stored here may escape into a Result: ids
// are immutable string headers owned by the cache or the store decode, and
// every slice that escapes (the slate, its arm tags) is freshly allocated.
//
// Candidate bookkeeping runs on intern slots instead of string-keyed maps:
// ids are batch-resolved to dense slots once per source (one interner RLock
// per batch), and dedup/exclusion is a generation-stamped array lookup. The
// warm-path profile that motivated this showed the per-candidate map churn —
// hashing, assignment, growth — dominating the request; the mark arrays turn
// all of it into integer indexing.
//
// Every source is then a pool of positions in the scored batch, one per
// bandit arm, and the slate is drawn from the pools: a position is one
// video, so "already in the slate" is one flag per position.
type serveScratch struct {
	flat  []string     // id scratch for batch slot resolution (sim entries, hot list, ANN hits)
	slots []int32      // slot scratch parallel to flat
	probe []int32      // ANN probe output
	hot   []topn.Entry // hot-list scratch (damped copy-out target)

	// The scored batch: each admitted id at its position, with its intern
	// slot, its Eq. 2 score, and whether the slate has taken it.
	ids     []string
	idSlots []int32
	scores  []float64
	taken   []bool

	pools  [bandit.NumArms][]int32 // per arm: batch positions in the arm's order
	cursor [bandit.NumArms]int     // per arm: the pool index next resumes at
	drawn  []int32                 // the slate, as batch positions

	marks   []int32  // per intern slot: markExcluded or batch position
	markGen []uint32 // generation stamp validating marks[slot]
	gen     uint32
}

// reset empties the batch, the pools and the slate, and starts a fresh mark
// generation, clearing stamps on wrap so a four-billion-requests-old mark can
// never read as current.
func (scr *serveScratch) reset() {
	scr.gen++
	if scr.gen == 0 {
		clear(scr.markGen)
		scr.gen = 1
	}
	scr.ids, scr.idSlots, scr.taken = scr.ids[:0], scr.idSlots[:0], scr.taken[:0]
	for a := range scr.pools {
		scr.pools[a] = scr.pools[a][:0]
	}
	scr.cursor = [bandit.NumArms]int{}
}

// admit is the one way an id enters a request. It walks one source's ids in
// order (slots parallel) and stamps each id the request has not seen yet.
// With arm == markExcluded the source is an exclusion: its ids are stamped
// excluded and never scored. Otherwise each new id takes the next position in the
// scored batch and joins the arm's pool, until the batch holds limit ids. An
// id already in the batch joins the hot pool at the position it has — the hot
// list is merged against the candidates, not beside them — while the sim and
// ANN pools keep only what they added. It returns how many ids it stamped.
func (scr *serveScratch) admit(arm int, ids []string, slots []int32, limit int) int {
	stamped := 0
	for i, sl := range slots {
		if n := int(sl) + 1; n > len(scr.marks) {
			// Slots are dense and only grow. The extension is zeroed, and
			// generation 0 is never current, so new slots read as unseen.
			scr.marks = append(scr.marks, make([]int32, n-len(scr.marks))...)        // alloccheck: catalog-bounded grow-once; the pooled scratch is reused
			scr.markGen = append(scr.markGen, make([]uint32, n-len(scr.markGen))...) // alloccheck: catalog-bounded grow-once; the pooled scratch is reused
		}
		if scr.markGen[sl] == scr.gen {
			if p := scr.marks[sl]; arm == int(bandit.ArmHot) && p != markExcluded {
				scr.pools[arm] = append(scr.pools[arm], p)
			}
			continue
		}
		if len(scr.ids) >= limit {
			break
		}
		scr.markGen[sl] = scr.gen
		stamped++
		if arm == markExcluded {
			scr.marks[sl] = markExcluded
			continue
		}
		p := int32(len(scr.ids))
		scr.marks[sl] = p
		scr.pools[arm] = append(scr.pools[arm], p)
		scr.ids = append(scr.ids, ids[i])
		scr.idSlots = append(scr.idSlots, sl)
		scr.taken = append(scr.taken, false)
	}
	return stamped
}

// sourceReader makes the two source reads whose need waits on admission:
// the ANN probe, made only while the batch has room, and the hot list, read
// only when the slate reserves hot slots and only as far as the exclusions
// require. System is the serving reader.
type sourceReader interface {
	// annProbe returns the ANN hits' intern slots in bucket order; none
	// without an index or for an unknown user.
	annProbe(ctx context.Context, user string, dst []int32) ([]int32, error)
	// hotFor returns the group's hot list, at most k long, into dst.
	hotFor(ctx context.Context, group string, k int, now time.Time, dst []topn.Entry) ([]topn.Entry, error)
}

// sources is what gather admits from: the request's exclusions and sim
// expansion, already read, and the keys of the reads left to r.
type sources struct {
	watched []string        // the user's distinct history, most recent first
	histSet map[string]bool // the whole watched set; wider than watched only under a non-default history limit
	current []string        // the video being watched, as a one-element list; nil without one
	sim     []string        // the seeds' similar videos, in seed order
	user    string          // the ANN probe's user
	group   string          // the hot list's group
	now     time.Time       // the hot list's decay instant
	n       int             // the slate's size
}

// gather admits a request's sources into the scored batch in serve order —
// the exclusions, the sim expansion, the ANN probe while the batch has room,
// then the hot list's videos — reading the ANN and hot sources through r only
// when admission needs them. It returns how many candidates the sim and ANN
// sources admitted (batch positions [0, numCand)) and how many slots the hot
// merge may fill.
func (scr *serveScratch) gather(ctx context.Context, r sourceReader, in *intern.Table, o Options, src *sources) (numCand, want int, err error) {
	scr.slots = in.Slots(src.watched, scr.slots[:0])
	excluded := scr.admit(markExcluded, src.watched, scr.slots, math.MaxInt)
	if excluded < len(src.histSet) {
		// The distinct-video view was truncated below the membership set (a
		// history limit above the serve window); fold the remainder in so
		// the exclusion still covers everything watched.
		rest := make([]string, 0, len(src.histSet)) // alloccheck: defensive fold-in for non-default history limits, never taken when the serve window equals the store limit (the default)
		for id := range src.histSet {
			rest = append(rest, id)
		}
		scr.slots = in.Slots(rest, scr.slots[:0])
		excluded += scr.admit(markExcluded, rest, scr.slots, math.MaxInt)
	}
	if src.current != nil {
		scr.slots = in.Slots(src.current, scr.slots[:0])
		excluded += scr.admit(markExcluded, src.current, scr.slots, math.MaxInt)
	}

	scr.slots = in.Slots(src.sim, scr.slots[:0])
	scr.admit(int(bandit.ArmSim), src.sim, scr.slots, o.MaxCandidates)

	if len(scr.ids) < o.MaxCandidates {
		if scr.probe, err = r.annProbe(ctx, src.user, scr.probe); err != nil {
			return 0, 0, err
		}
		if len(scr.probe) > 0 {
			scr.flat = in.IDs(scr.probe, scr.flat[:0])
			scr.admit(int(bandit.ArmANN), scr.flat, scr.probe, o.MaxCandidates)
		}
	}
	numCand = len(scr.ids)

	want, fetch := o.hotPlan(src.n, numCand, excluded)
	if want > 0 {
		hot, err := r.hotFor(ctx, src.group, fetch, src.now, scr.hot[:0])
		scr.hot = hot[:0]
		if err != nil {
			return 0, 0, err
		}
		flat := scr.flat[:0]
		for _, e := range hot {
			flat = append(flat, e.ID)
		}
		scr.flat = flat
		scr.slots = in.Slots(flat, scr.slots[:0])
		scr.admit(int(bandit.ArmHot), flat, scr.slots, math.MaxInt)
	}
	return numCand, want, nil
}

// slateCap bounds a request's N. A slate holds at most every candidate plus
// the whole hot list, so a larger N cannot change the response; one past that
// capacity keeps an explored slate ending on a dry draw as an unbounded N
// would. Every count and allocation on the serve path is bounded by the
// pools, never by the caller's N.
func (o Options) slateCap(n int) int {
	return min(n, o.MaxCandidates+o.HotCapacity+1)
}

// hotPlan sizes the hot merge of an n-slot slate over numCand candidates:
// want is how many slots the hot pool may fill — HotShare of the slate, and
// every slot MF cannot (new users get a full hot list, the paper's
// cold-start answer) — and fetch is how long a hot list to read for it, n
// past the excluded videos it may have to skip. Without demographic
// filtering want is 0 and nothing is fetched.
func (o Options) hotPlan(n, numCand, excluded int) (want, fetch int) {
	if !o.DemographicFiltering {
		return 0, 0
	}
	return max(int(o.HotShare*float64(n)), n-min(n, numCand)), n + excluded
}

// rank fills the MF pool with the best n of batch positions [0, numCand) by
// score, best first, equal scores in batch order. It is topn.Ranker's
// admission — a full rank admits only a score strictly above its minimum —
// kept on positions, which the slate draws, instead of ids.
func (scr *serveScratch) rank(numCand, n int) {
	mf := scr.pools[bandit.ArmMF]
	for p := range int32(numCand) {
		score := scr.scores[p]
		k := len(mf)
		if k == n {
			if score <= scr.scores[mf[k-1]] {
				continue
			}
			k-- // the minimum is displaced
		}
		i := k
		for i > 0 && scr.scores[mf[i-1]] < score {
			i--
		}
		mf = append(mf[:k], 0)
		copy(mf[i+1:], mf[i:k])
		mf[i] = p
	}
	scr.pools[bandit.ArmMF] = mf
}

// next takes arm a's first pool position the slate has not taken, or
// returns -1 when the arm is dry.
func (scr *serveScratch) next(a bandit.Arm) int32 {
	pool := scr.pools[a]
	for scr.cursor[a] < len(pool) {
		p := pool[scr.cursor[a]]
		scr.cursor[a]++
		if !scr.taken[p] {
			scr.taken[p] = true
			return p
		}
	}
	return -1
}

// merge ranks the candidates, batch positions [0, numCand), into the MF pool
// and draws the slate without exploration: the MF rank is reserved, up to
// want positions come from the hot pool in popularity order, and the rank
// keeps the n - merged slots left ahead of them. The cut rank stays behind as
// the MF pool. It returns how many hot positions it merged.
func (scr *serveScratch) merge(numCand, n, want int) int {
	scr.rank(numCand, n)
	mf := scr.pools[bandit.ArmMF]
	for _, p := range mf {
		scr.taken[p] = true
	}
	drawn := append(scr.drawn[:0], mf...)
	merged := 0
	for ; merged < want; merged++ {
		p := scr.next(bandit.ArmHot)
		if p < 0 {
			break
		}
		drawn = append(drawn, p)
	}
	keep := min(len(mf), n-merged)
	scr.drawn = append(drawn[:keep], drawn[len(mf):]...)
	scr.pools[bandit.ArmMF] = mf[:keep]
	return merged
}

// explore redraws the slate slot by slot from the pools merge left: the
// policy picks an arm and the arm's next untaken position fills the slot. A
// dry arm falls through the arms in fixed order so the slate still fills, and
// the arm that filled the slot takes the pull (it did the serving work). The
// slate ends at n slots or when every pool is dry. The caller holds policyMu.
func (scr *serveScratch) explore(n int, policy bandit.Policy, st *bandit.State) (arms []bandit.Arm, pulls [bandit.NumArms]int) {
	clear(scr.taken)
	scr.cursor = [bandit.NumArms]int{}
	drawn := scr.drawn[:0]
	arms = make([]bandit.Arm, 0, min(n, len(scr.ids))) // alloccheck: arm tags escape into the Result (explore budget)
	for len(drawn) < n {
		arm := policy.Pick(st)
		p := scr.next(arm)
		for f := 0; f < bandit.NumArms && p < 0; f++ {
			arm = bandit.Arm(f)
			p = scr.next(arm)
		}
		if p < 0 {
			break
		}
		drawn = append(drawn, p)
		arms = append(arms, arm)
		pulls[arm]++
	}
	scr.drawn = drawn
	return arms, pulls
}

// entries copies the drawn slate out as the response list, every position
// with its Eq. 2 score.
func (scr *serveScratch) entries() []topn.Entry {
	out := make([]topn.Entry, len(scr.drawn)) // alloccheck: the slate escapes into the Result (warm budget)
	for i, p := range scr.drawn {
		out[i] = topn.Entry{ID: scr.ids[p], Score: scr.scores[p]}
	}
	return out
}

// Recommend runs the full Figure 1 pipeline for one request: the
// personalized path (exclude → gather → score and rank → draw the slate),
// and — when that path fails on storage errors — the demographic fallback,
// which serves the group's hot list so the request degrades in quality
// instead of erroring. Validation failures never fall back, and if the
// fallback cannot be built either, the personalized path's error is the one
// returned. An N beyond what the pools can fill serves the same response as
// the pools' capacity.
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
	req.N = s.opts.slateCap(req.N)
	now := s.Now()
	group := s.groupOf(ctx, req.UserID)

	res, err := s.personalized(ctx, req, group, now)
	if err != nil {
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

// personalized is the MF-ranked serving path, in four steps: exclude the
// watched and current videos, gather the candidate sources into one scored
// batch, score and rank it, and draw the slate from the sources' pools.
//
// The store round trips are batched to a constant per request regardless of
// seed or candidate count: one history fetch serves both seeding and the
// exclusion set, all seeds' similar lists share one MGet (SimilarBatch), and
// candidates plus merge-eligible hot videos are scored in a single batch.
// Per-item scores under Eq. 2 are independent of what else is in the batch,
// so a video's score is the same whichever pool draws it; with the
// decoded-value cache warm the whole request runs with zero store round
// trips.
func (s *System) personalized(ctx context.Context, req Request, group string, now time.Time) (*Result, error) {
	scr, _ := s.scratch.Get().(*serveScratch)
	if scr == nil {
		scr = new(serveScratch) // alloccheck: pool miss, cold start only
	}
	defer s.scratch.Put(scr)
	scr.reset()

	// 1. Exclude. One history fetch serves every consumer: the prefix of the
	// cached video list seeds the expansion ("Guess you like") and the
	// watched set is excluded — never recommend anything the user already
	// watched; re-serving watched content wastes slots and triggers
	// fatigue. When a current video is given it is the sole seed and a
	// history fetch failure only shrinks the exclusion set.
	watched, histSet, histErr := s.History.Watched(ctx, req.UserID, s.opts.HistoryLimit)
	src := sources{watched: watched, histSet: histSet, user: req.UserID, group: group, now: now, n: req.N}
	var seeds []string
	if req.CurrentVideo != "" {
		seeds = []string{req.CurrentVideo} // alloccheck: single-element seed slice (warm budget)
		src.current = seeds
	} else {
		if histErr != nil {
			return nil, histErr
		}
		seeds = watched[:min(len(watched), s.opts.SeedCount)]
	}

	// 2. Gather. Candidate expansion through the group's similar-video
	// tables: all seeds' lists arrive in one batched fetch and resolve to
	// slots in one batched intern pass; the sim pool keeps seed order. ANN
	// retrieval (Options.ANN) probes the LSH index with the user's global
	// factor vector and admits whatever the matching buckets hold under the
	// same candidate cap, in bucket order. Demographic filtering reserves
	// part of the list for the group's hot videos: the rank's length is
	// known before scoring — min(N, candidates) — so whether to merge is
	// too, and the hot list's eligible videos join the scoring batch; hot
	// videos that are already candidates keep their position, Eq. 2 being
	// per-item.
	tables, err := s.Tables.For(group)
	if err != nil {
		return nil, err
	}
	flat, err := tables.SimilarIDs(ctx, seeds, s.opts.CandidatesPerSeed, now, scr.flat[:0])
	if err != nil {
		return nil, err
	}
	scr.flat, src.sim = flat, flat
	numCand, want, err := scr.gather(ctx, s, s.interner, s.opts, &src)
	if err != nil {
		return nil, err
	}
	model, err := s.Models.For(group)
	if err != nil {
		return nil, err
	}

	// 3. Score: preference prediction (Eq. 2) over the batch only —
	// the whole corpus is never scored — from the model's slot-indexed item
	// table (float or int8 records) into the pooled scores scratch.
	scores, err := model.ScoreSlots(ctx, req.UserID, scr.ids, scr.idSlots, scr.scores)
	if err != nil {
		return nil, err
	}
	scr.scores = scores

	// 4. Draw the slate. The candidates' rank becomes the MF pool, and
	// without exploration the slate is that rank with the hot merge after
	// it; merged entries carry their model score so every entry's Score has
	// one meaning, and keep the merge's popularity order — the DB
	// algorithm's ranking for its slots.
	merged := scr.merge(numCand, req.N, want)
	if s.policy == nil {
		return &Result{ // alloccheck: the returned Result is the API contract (warm budget)
			Videos:     scr.entries(),
			Seeds:      len(seeds),
			Candidates: numCand,
			HotMerged:  merged,
		}, nil
	}

	// Exploration (Options.Explore) redraws it slot by slot, each slot from
	// the arm the bandit policy picks: the MF rank, the sim expansion in seed
	// order, the hot list in popularity order, the ANN probe in bucket order.
	// Pulls are charged to the arm that filled the slot, and the slate's
	// attributions replace the user's previous breadcrumbs. Any storage error
	// here propagates, so a failed explore request falls into the same
	// degraded fallback as any other serving failure — and the fallback
	// never samples.
	st, err := s.Bandit.State(ctx)
	if err != nil {
		return nil, err
	}
	s.policyMu.Lock()
	arms, pulls := scr.explore(req.N, s.policy, &st)
	s.policyMu.Unlock()
	videos := scr.entries()
	if err := s.Bandit.RecordPulls(ctx, &pulls, now); err != nil {
		return nil, err
	}
	if err := s.Bandit.Attribute(ctx, req.UserID, videos, arms); err != nil {
		return nil, err
	}
	return &Result{ // alloccheck: the returned Result is the API contract (explore budget)
		Videos:     videos,
		Seeds:      len(seeds),
		Candidates: numCand,
		HotMerged:  pulls[bandit.ArmHot],
		Explored:   true,
		Arms:       arms,
	}, nil
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

// annProbe probes the LSH index with the user's global factor vector
// (Options.ANN). The probe returns slots, cross-table duplicates included,
// and admission absorbs them like any other dup. Unknown users skip the
// probe: their cold-start vector would hash to arbitrary buckets.
func (s *System) annProbe(ctx context.Context, user string, dst []int32) ([]int32, error) {
	if s.annIndex == nil {
		return dst[:0], nil
	}
	uvec, _, known, err := s.global.UserVector(ctx, user)
	if err != nil || !known {
		return dst[:0], err
	}
	return s.annIndex.Probe(uvec, dst), nil
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
