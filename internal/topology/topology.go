// Package topology wires the paper's Figure 2 onto the storm engine: one
// spout parsing the raw action stream, and the three processing lines —
//
//	spout ─▶ ComputeMF ─▶ MFStorage            (model updates)
//	spout ─▶ GetItemPairs ─▶ ItemPairSim ─▶ ResultStorage   (similar-video tables)
//	spout ─▶ UserHistory                        (behaviour histories + hot lists)
//	spout ─▶ BanditReward ─▶ BanditState        (exploration reward loop)
//
// with the groupings the paper specifies: action tuples are fields-grouped
// by user id, freshly computed vectors are regrouped by their storage key on
// the way to MFStorage (the single-writer guarantee of §5.1), and pair
// similarities are grouped by the owning video before storage.
//
// Every bolt is "decode the tuple, run one of recommend.System's write-path
// steps, emit the result": the training arithmetic lives there once, shared
// with the sequential System.Ingest. Under Options.Synchronous the topology
// and Ingest leave byte-identical stored state (internal/sim's
// TestSyncTopologyEqualsIngest); the concurrent scheduler interleaves sibling
// bolts' reads and writes, the documented production behaviour.
package topology

import (
	"context"
	"fmt"
	"time"

	"vidrec/internal/bandit"
	"vidrec/internal/feedback"
	"vidrec/internal/recommend"
	"vidrec/internal/storm"
)

// Component names, as in Figure 2.
const (
	SpoutName         = "spout"
	ComputeMFName     = "ComputeMF"
	MFStorageName     = "MFStorage"
	UserHistoryName   = "UserHistory"
	GetItemPairsName  = "GetItemPairs"
	ItemPairSimName   = "ItemPairSim"
	ResultStorageName = "ResultStorage"
	BanditRewardName  = "BanditReward"
	BanditStateName   = "BanditState"
)

// Parallelism sets per-component task counts (the "parallelism of different
// spout or bolts is determined by the data set").
type Parallelism struct {
	Spout, ComputeMF, MFStorage, UserHistory, GetItemPairs, ItemPairSim, ResultStorage int
	// BanditReward and BanditState run the exploration reward line. Zero
	// values are clamped to 1 by the storm builder, so existing literals
	// that predate the bandit keep building.
	BanditReward, BanditState int
}

// DefaultParallelism returns a small-machine layout.
func DefaultParallelism() Parallelism {
	return Parallelism{
		Spout:         1,
		ComputeMF:     4,
		MFStorage:     4,
		UserHistory:   2,
		GetItemPairs:  2,
		ItemPairSim:   4,
		ResultStorage: 4,
		BanditReward:  2,
		// The reward state is one shared record; a single writer task keeps
		// its read-modify-write serialized the way MFStorage's key grouping
		// serializes vectors.
		BanditState: 1,
	}
}

// Source supplies actions to one spout task. Next reports false when the
// stream is exhausted.
//
// A source that can stop on an error mid-stream (a log reader meeting a
// malformed line) also has an Err() error method. The spout calls it when
// Next reports false; a non-nil error ends the task as a spout error, which
// Run returns.
type Source interface {
	Next() (feedback.Action, bool)
}

// failingSource is the optional error side of a Source.
type failingSource interface {
	Err() error
}

// SourceFunc adapts a function to Source.
type SourceFunc func() (feedback.Action, bool)

// Next implements Source.
func (f SourceFunc) Next() (feedback.Action, bool) { return f() }

// SliceSource replays a fixed slice of actions.
func SliceSource(actions []feedback.Action) Source {
	i := 0
	return SourceFunc(func() (feedback.Action, bool) {
		if i >= len(actions) {
			return feedback.Action{}, false
		}
		a := actions[i]
		i++
		return a, true
	})
}

// Options tunes the assembled topology beyond parallelism. The zero value
// reproduces Build's behaviour; the simulation harness (internal/sim) sets
// every field to pin the run down deterministically and to inject faults.
type Options struct {
	// Tracked makes the spout emit tracked tuples: the acker builds a tree
	// per action, the Acked/FailedTrees metrics account for every action,
	// and Topology.UnresolvedTrees can prove conservation after the run.
	Tracked bool
	// QueueSize overrides the per-task input queue capacity when > 0.
	QueueSize int
	// MaxPending caps unresolved tracked trees per spout task when > 0
	// (storm's max-spout-pending). MaxPending 1 with Tracked serializes the
	// pipeline at action granularity: each action's full tuple tree completes
	// before the next emission.
	MaxPending int
	// Synchronous runs the topology on storm's single-goroutine deterministic
	// scheduler (storm.Builder.SetSynchronous): execution order becomes a
	// pure function of the action stream — the mode the replay-determinism
	// scenario needs, since even single-task components race on shared store
	// keys under the concurrent scheduler.
	Synchronous bool
	// Seed seeds the engine's per-task edge-id generators when non-zero.
	Seed uint64
	// WrapBolt, when non-nil, decorates every bolt instance as it is
	// created (name is the component name) — the hook the simulation
	// harness uses to model bolt restarts and slow bolts.
	WrapBolt func(name string, b storm.Bolt) storm.Bolt
}

// Build assembles the Figure 2 topology over the system's components.
// sources is invoked once per spout task.
func Build(sys *recommend.System, sources func(task int) Source, par Parallelism) (*storm.Topology, error) {
	return BuildWithOptions(sys, sources, par, Options{})
}

// BuildWithOptions is Build with explicit Options.
func BuildWithOptions(sys *recommend.System, sources func(task int) Source, par Parallelism, opt Options) (*storm.Topology, error) {
	if sys == nil {
		return nil, fmt.Errorf("topology: system must not be nil")
	}
	if sources == nil {
		return nil, fmt.Errorf("topology: source factory must not be nil")
	}
	b := storm.NewBuilder("rt-video-recommendation")
	if opt.QueueSize > 0 {
		b.SetQueueSize(opt.QueueSize)
	}
	if opt.MaxPending > 0 {
		b.SetMaxSpoutPending(opt.MaxPending)
	}
	if opt.Seed != 0 {
		b.SetSeed(opt.Seed)
	}
	if opt.Synchronous {
		b.SetSynchronous(true)
	}
	spoutTask := 0
	b.SetSpout(SpoutName, func() storm.Spout {
		s := &actionSpout{tracked: opt.Tracked}
		s.src = sources(spoutTask)
		spoutTask++
		return s
	}, par.Spout).OutputFields("user", "video", "action")

	// bolt registers one Figure 2 bolt; every task gets its own instance.
	bolt := func(name string, par int, mk func(base) storm.Bolt) *storm.BoltDecl {
		return b.SetBolt(name, func() storm.Bolt {
			inst := mk(base{sys: sys})
			if opt.WrapBolt != nil {
				inst = opt.WrapBolt(name, inst)
			}
			return inst
		}, par)
	}

	bolt(ComputeMFName, par.ComputeMF, func(s base) storm.Bolt { return &computeMFBolt{s} }).
		FieldsGrouping(SpoutName, "user").
		OutputFields("key", "kind", "group", "id", "vec", "bias")

	bolt(MFStorageName, par.MFStorage, func(s base) storm.Bolt { return &mfStorageBolt{s} }).
		FieldsGrouping(ComputeMFName, "key")

	// GetItemPairs is declared before UserHistory: the synchronous scheduler
	// delivers a spout tuple to its subscribers in declaration order, and the
	// pair line must read the user's history before this action joins it.
	bolt(GetItemPairsName, par.GetItemPairs, func(s base) storm.Bolt { return &getItemPairsBolt{s} }).
		FieldsGrouping(SpoutName, "user").
		OutputFields("video1", "video2", "group", "ts")

	bolt(UserHistoryName, par.UserHistory, func(s base) storm.Bolt { return &userHistoryBolt{s} }).
		FieldsGrouping(SpoutName, "user")

	bolt(ItemPairSimName, par.ItemPairSim, func(s base) storm.Bolt { return &itemPairSimBolt{s} }).
		FieldsGrouping(GetItemPairsName, "video1", "video2").
		OutputFields("video1", "video2", "sim", "group", "ts")

	bolt(ResultStorageName, par.ResultStorage, func(s base) storm.Bolt { return &resultStorageBolt{s} }).
		FieldsGrouping(ItemPairSimName, "video1")

	bolt(BanditRewardName, par.BanditReward, func(s base) storm.Bolt { return &banditRewardBolt{s} }).
		FieldsGrouping(SpoutName, "user").
		OutputFields("arm", "reward", "tsms")

	bolt(BanditStateName, par.BanditState, func(s base) storm.Bolt { return &banditStateBolt{s} }).
		FieldsGrouping(BanditRewardName, "arm")

	return b.Build()
}

// actionSpout parses and emits the raw action stream: "the spout gets data
// ..., parses the raw message, filters the unqualified data tuples".
type actionSpout struct {
	src     Source
	out     *storm.SpoutCollector
	tracked bool
}

func (s *actionSpout) Open(_ context.Context, out *storm.SpoutCollector) error {
	s.out = out
	return nil
}

func (s *actionSpout) NextTuple() (bool, error) {
	a, ok := s.src.Next()
	if !ok {
		if f, isFailing := s.src.(failingSource); isFailing {
			return false, f.Err()
		}
		return false, nil
	}
	if a.UserID == "" || a.VideoID == "" {
		return true, nil // unqualified tuple: filter, keep streaming
	}
	if s.tracked {
		s.out.EmitTracked(storm.Values{a.UserID, a.VideoID, a})
	} else {
		s.out.Emit(storm.Values{a.UserID, a.VideoID, a})
	}
	return true, nil
}

// base is the state every Figure 2 bolt holds: the system whose write-path
// steps it runs, the run's context and the task's collector.
type base struct {
	sys *recommend.System
	ctx context.Context
	out *storm.BoltCollector
}

func (b *base) Prepare(ctx context.Context, out *storm.BoltCollector) error {
	b.ctx = ctx
	b.out = out
	return nil
}

// computeMFBolt runs Algorithm 1's arithmetic for every group the action
// trains and emits the new vectors, regrouped by storage key, to MFStorage —
// compute and storage are separated exactly as in §5.1 so that each key has a
// single writer.
type computeMFBolt struct{ base }

func (b *computeMFBolt) Execute(t *storm.Tuple) error {
	a, err := storm.Get[feedback.Action](t, "action")
	if err != nil {
		return err
	}
	group, err := b.sys.Observe(b.ctx, a)
	if err != nil {
		return err
	}
	for _, g := range b.sys.TrainGroups(group) {
		model, err := b.sys.Models.For(g)
		if err != nil {
			return err
		}
		next, ok, err := model.Compute(b.ctx, a)
		if err != nil {
			return err
		}
		if !ok {
			continue // impression, or a non-finite step dropped
		}
		b.out.Emit(storm.Values{g + "|u|" + a.UserID, "user", g, a.UserID, next.UserVec, next.UserBias})
		b.out.Emit(storm.Values{g + "|i|" + a.VideoID, "item", g, a.VideoID, next.ItemVec, next.ItemBias})
	}
	return nil
}

// mfStorageBolt writes freshly computed vectors; fields grouping by key
// guarantees it is the only writer for that vector.
type mfStorageBolt struct{ base }

func (b *mfStorageBolt) Execute(t *storm.Tuple) error {
	kind, err := storm.Get[string](t, "kind")
	if err != nil {
		return err
	}
	group, err := storm.Get[string](t, "group")
	if err != nil {
		return err
	}
	id, err := storm.Get[string](t, "id")
	if err != nil {
		return err
	}
	vec, err := storm.Get[[]float64](t, "vec")
	if err != nil {
		return err
	}
	bias, err := storm.Get[float64](t, "bias")
	if err != nil {
		return err
	}
	model, err := b.sys.Models.For(group)
	if err != nil {
		return err
	}
	switch kind {
	case "user":
		return model.StoreUser(b.ctx, id, vec, bias)
	case "item":
		return model.StoreItem(b.ctx, id, vec, bias)
	default:
		return fmt.Errorf("topology: unknown vector kind %q", kind)
	}
}

// userHistoryBolt records behaviour histories and heats the demographic hot
// lists.
type userHistoryBolt struct{ base }

func (b *userHistoryBolt) Execute(t *storm.Tuple) error {
	a, err := storm.Get[feedback.Action](t, "action")
	if err != nil {
		return err
	}
	group, err := b.sys.Observe(b.ctx, a)
	if err != nil {
		return err
	}
	return b.sys.RecordBehaviour(b.ctx, a, group)
}

// getItemPairsBolt expands each positive action into (video, recent video)
// pairs, one tuple per unordered pair, tagged with the acting user's group.
type getItemPairsBolt struct{ base }

func (b *getItemPairsBolt) Execute(t *storm.Tuple) error {
	a, err := storm.Get[feedback.Action](t, "action")
	if err != nil {
		return err
	}
	pairs, err := b.sys.ItemPairs(b.ctx, a)
	if err != nil || len(pairs) == 0 {
		return err
	}
	group, err := b.sys.Observe(b.ctx, a)
	if err != nil {
		return err
	}
	for _, pair := range pairs {
		b.out.Emit(storm.Values{pair[0], pair[1], group, a.Timestamp})
	}
	return nil
}

// itemPairSimBolt scores each pair once per group its user trains and emits
// both directed rows, so each video's table has an owner task downstream.
// Vectors and catalog types are read through the system's coherent
// decoded-value cache (objcache) — §5.1's cache technique without a staleness
// window.
type itemPairSimBolt struct{ base }

func (b *itemPairSimBolt) Execute(t *storm.Tuple) error {
	v1, err := storm.Get[string](t, "video1")
	if err != nil {
		return err
	}
	v2, err := storm.Get[string](t, "video2")
	if err != nil {
		return err
	}
	group, err := storm.Get[string](t, "group")
	if err != nil {
		return err
	}
	ts, err := storm.Get[time.Time](t, "ts")
	if err != nil {
		return err
	}
	for _, g := range b.sys.TrainGroups(group) {
		score, err := b.sys.ScorePair(b.ctx, g, v1, v2)
		if err != nil {
			return err
		}
		b.out.Emit(storm.Values{v1, v2, score, g, ts})
		b.out.Emit(storm.Values{v2, v1, score, g, ts})
	}
	return nil
}

// resultStorageBolt persists the top-N similar list updates; fields grouping
// by the owning video serializes writers per list.
type resultStorageBolt struct{ base }

func (b *resultStorageBolt) Execute(t *storm.Tuple) error {
	v1, err := storm.Get[string](t, "video1")
	if err != nil {
		return err
	}
	v2, err := storm.Get[string](t, "video2")
	if err != nil {
		return err
	}
	score, err := storm.Get[float64](t, "sim")
	if err != nil {
		return err
	}
	group, err := storm.Get[string](t, "group")
	if err != nil {
		return err
	}
	ts, err := storm.Get[time.Time](t, "ts")
	if err != nil {
		return err
	}
	tables, err := b.sys.Tables.For(group)
	if err != nil {
		return err
	}
	return tables.UpdateDirected(b.ctx, v1, v2, score, ts)
}

// banditRewardBolt attributes incoming actions to explored slates: fields
// grouping by user routes each user's actions (and their attribution record)
// to one task, which consumes the matching slate breadcrumb and emits a
// bounded reward tuple toward the state writer. On a system that is not
// exploring, the bolt is a pure pass-through — no store traffic, so existing
// scenarios' operation counts are untouched.
type banditRewardBolt struct{ base }

func (b *banditRewardBolt) Execute(t *storm.Tuple) error {
	a, err := storm.Get[feedback.Action](t, "action")
	if err != nil {
		return err
	}
	ev, ok, err := b.sys.AttributeReward(b.ctx, a)
	if err != nil || !ok {
		return err
	}
	b.out.Emit(storm.Values{int64(ev.Arm), ev.Reward, ev.TsMs})
	return nil
}

// banditStateBolt folds reward tuples into the shared posterior state. A
// failed write fails the tuple tree, which a tracked run counts in
// FailedTrees; nothing replays the action, so the reward is lost, as any
// storage bolt's failed write is.
type banditStateBolt struct{ base }

func (b *banditStateBolt) Execute(t *storm.Tuple) error {
	arm, err := storm.Get[int64](t, "arm")
	if err != nil {
		return err
	}
	reward, err := storm.Get[float64](t, "reward")
	if err != nil {
		return err
	}
	ts, err := storm.Get[int64](t, "tsms")
	if err != nil {
		return err
	}
	return b.sys.FoldReward(b.ctx, bandit.RewardEvent{Arm: bandit.Arm(arm), Reward: reward, TsMs: ts})
}
