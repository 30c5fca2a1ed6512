package recommend

import (
	"context"

	"vidrec/internal/bandit"
	"vidrec/internal/demographic"
	"vidrec/internal/feedback"
	"vidrec/internal/kvstore"
	"vidrec/internal/simtable"
)

// The write path: every training step of Figure 2 exactly once. Ingest below
// runs them inline for one action; each topology bolt decodes its tuple, runs
// one of them and emits the result downstream.

// Observe opens an action on either write path: it advances the stream clock
// to the action's timestamp and resolves the acting user's demographic group.
// Unlike the serve path's groupOf, a profile that cannot be read is an error —
// training the wrong group's model is worse than failing the action.
func (s *System) Observe(ctx context.Context, a feedback.Action) (group string, err error) {
	ns := a.Timestamp.UnixNano()
	for {
		cur := s.streamNow.Load()
		if ns <= cur || s.streamNow.CompareAndSwap(cur, ns) {
			break
		}
	}
	return s.Profiles.GroupOf(ctx, a.UserID)
}

// TrainGroups lists the groups whose model and similar tables an action by a
// user of the given group trains: the global group always, and the user's
// own group when they have one (§5.2.2).
func (s *System) TrainGroups(group string) []string {
	if group != demographic.GlobalGroup {
		return []string{demographic.GlobalGroup, group}
	}
	return []string{demographic.GlobalGroup}
}

// RecordBehaviour appends a positive action to the user's history and heats
// the hot lists it counts toward — global, plus the user's group under
// Options.DemographicFiltering (UserHistory), one store op per record.
// Impressions record nothing.
func (s *System) RecordBehaviour(ctx context.Context, a feedback.Action, group string) error {
	b := kvstore.AcquireBatch()
	defer b.Release()
	var err error
	if b.Ops, err = s.behaviourOps(b.Ops, a, group); err != nil {
		return err
	}
	for i := range b.Ops {
		if _, err := kvstore.Apply(ctx, s.kv, b.Ops[i:i+1]...); err != nil {
			return err
		}
	}
	return nil
}

// behaviourOps appends RecordBehaviour's rewrites to dst: none for an
// action without weight, else the history append and one hot-list add per
// list the action heats.
func (s *System) behaviourOps(dst []kvstore.Op, a feedback.Action, group string) ([]kvstore.Op, error) {
	weight := s.weights.Weight(a)
	if weight <= 0 {
		return dst, nil
	}
	op, err := s.History.AppendOp(a.UserID, a.VideoID, a.Timestamp)
	if err != nil {
		return dst, err
	}
	dst = append(dst, op)
	hot := []string{demographic.GlobalGroup, group}
	if !s.opts.DemographicFiltering || group == demographic.GlobalGroup {
		hot = hot[:1]
	}
	for _, g := range hot {
		op, ok, err := s.Hot.RecordOp(g, a.VideoID, weight, a.Timestamp)
		if err != nil {
			return dst, err
		}
		if ok {
			dst = append(dst, op)
		}
	}
	return dst, nil
}

// ItemPairs expands a positive action into the unordered pairs it touches:
// the acted-on video against the user's recent distinct videos
// (GetItemPairs). It must read the history before RecordBehaviour appends
// the action to it.
func (s *System) ItemPairs(ctx context.Context, a feedback.Action) ([][2]string, error) {
	if s.weights.Weight(a) <= 0 {
		return nil, nil
	}
	recent, err := s.History.RecentVideos(ctx, a.UserID, s.opts.PairWindow)
	if err != nil {
		return nil, err
	}
	return simtable.Pairs(a.VideoID, recent), nil
}

// ScorePair computes one unordered pair's undamped fused similarity (Eq.
// 9–12 without the time factor) under the group's model (ItemPairSim). The
// score is symmetric: it fills both directed rows, which ResultStorage writes
// with Tables.UpdateDirected.
func (s *System) ScorePair(ctx context.Context, group, i, j string) (float64, error) {
	model, err := s.Models.For(group)
	if err != nil {
		return 0, err
	}
	tables, err := s.Tables.For(group)
	if err != nil {
		return 0, err
	}
	return tables.PairScore(ctx, model, s.Catalog, i, j)
}

// AttributeReward consumes the explored-slate breadcrumb a positive action
// lands on, if any, and returns the reward it earns the arm that filled the
// slot: the action's confidence scaled into [0,1] (BanditReward). On a system
// that is not exploring it touches no store.
func (s *System) AttributeReward(ctx context.Context, a feedback.Action) (ev bandit.RewardEvent, ok bool, err error) {
	weight := s.weights.Weight(a)
	if s.policy == nil || weight <= 0 {
		return ev, false, nil
	}
	arm, ok, err := s.Bandit.Take(ctx, a.UserID, a.VideoID)
	if err != nil || !ok {
		return ev, false, err
	}
	return bandit.RewardEvent{Arm: arm, Reward: bandit.RewardFromWeight(weight), TsMs: a.Timestamp.UnixMilli()}, true, nil
}

// FoldReward folds one reward into the shared posterior state (BanditState).
func (s *System) FoldReward(ctx context.Context, ev bandit.RewardEvent) error {
	return s.Bandit.Reward(ctx, ev)
}

// Ingest applies one user action to all pipeline state: the Figure 2 steps,
// inline. Reads and writes of one key happen in the order the synchronous
// topology schedules them (μ folded before the step reads it, MF stored
// before pairs are scored, history read before it is appended to), which is
// what makes the two paths equivalent. The writes go out in batches
// (kvstore.Apply), so a remote store sees few round trips: every trained
// model's μ fold in one, each model's step in one, and the history, hot-list
// and similar-table rewrites of a positive action in one.
func (s *System) Ingest(ctx context.Context, a feedback.Action) error {
	group, err := s.Observe(ctx, a)
	if err != nil {
		return err
	}
	groups := s.TrainGroups(group)
	b := kvstore.AcquireBatch()
	defer b.Release()
	for _, g := range groups {
		model, err := s.Models.For(g)
		if err != nil {
			return err
		}
		if op, ok := model.MeanOp(a); ok {
			b.Ops = append(b.Ops, op)
		}
	}
	if _, err := kvstore.Apply(ctx, s.kv, b.Ops...); err != nil {
		return err
	}
	for _, g := range groups {
		model, err := s.Models.For(g)
		if err != nil {
			return err
		}
		next, ok, err := model.ComputeFolded(ctx, a)
		if err != nil {
			return err
		}
		if ok {
			if err := model.StoreState(ctx, a.UserID, a.VideoID, next); err != nil {
				return err
			}
		}
	}
	if ev, ok, err := s.AttributeReward(ctx, a); err != nil {
		return err
	} else if ok {
		if err := s.FoldReward(ctx, ev); err != nil {
			return err
		}
	}
	pairs, err := s.ItemPairs(ctx, a)
	if err != nil {
		return err
	}
	if b.Ops, err = s.behaviourOps(b.Ops[:0], a, group); err != nil {
		return err
	}
	for _, g := range groups {
		tables, err := s.Tables.For(g)
		if err != nil {
			return err
		}
		for _, p := range pairs {
			score, err := s.ScorePair(ctx, g, p[0], p[1])
			if err != nil {
				return err
			}
			fwd, err := tables.DirectedOp(p[0], p[1], score, a.Timestamp)
			if err != nil {
				return err
			}
			back, err := tables.DirectedOp(p[1], p[0], score, a.Timestamp)
			if err != nil {
				return err
			}
			b.Ops = append(b.Ops, fwd, back)
		}
	}
	_, err = kvstore.Apply(ctx, s.kv, b.Ops...)
	return err
}
