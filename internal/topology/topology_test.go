package topology

import (
	"context"
	"errors"
	"testing"
	"time"

	"vidrec/internal/core"
	"vidrec/internal/dataset"
	"vidrec/internal/demographic"
	"vidrec/internal/feedback"
	"vidrec/internal/kvstore"
	"vidrec/internal/recommend"
	"vidrec/internal/simtable"
	"vidrec/internal/storm"
)

func newSystem(t *testing.T) *recommend.System {
	t.Helper()
	params := core.DefaultParams()
	params.Factors = 8
	sys, err := recommend.NewSystem(kvstore.NewLocal(32), params, simtable.DefaultConfig(), recommend.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func generatedActions(t *testing.T) (*dataset.Dataset, []feedback.Action) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Users = 100
	cfg.Videos = 50
	cfg.Days = 2
	cfg.EventsPerDay = 700
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, d.AllActions()
}

func runTopology(t *testing.T, sys *recommend.System, actions []feedback.Action, par Parallelism) *storm.Topology {
	t.Helper()
	topo, err := Build(sys, func(int) Source { return SliceSource(actions) }, par)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestBuildValidation(t *testing.T) {
	sys := newSystem(t)
	if _, err := Build(nil, func(int) Source { return SliceSource(nil) }, DefaultParallelism()); err == nil {
		t.Error("nil system accepted")
	}
	if _, err := Build(sys, nil, DefaultParallelism()); err == nil {
		t.Error("nil source factory accepted")
	}
}

func TestTopologyProcessesFullStream(t *testing.T) {
	sys := newSystem(t)
	d, actions := generatedActions(t)
	if err := d.FillCatalog(context.Background(), sys.Catalog); err != nil {
		t.Fatal(err)
	}
	if err := d.FillProfiles(context.Background(), sys.Profiles); err != nil {
		t.Fatal(err)
	}
	topo := runTopology(t, sys, actions, DefaultParallelism())

	spout, err := topo.MetricsFor(SpoutName)
	if err != nil {
		t.Fatal(err)
	}
	if spout.Emitted != uint64(len(actions)) {
		t.Errorf("spout emitted %d, want %d", spout.Emitted, len(actions))
	}
	compute, _ := topo.MetricsFor(ComputeMFName)
	if compute.Executed != uint64(len(actions)) {
		t.Errorf("ComputeMF executed %d, want %d", compute.Executed, len(actions))
	}
	if compute.Failed != 0 {
		t.Errorf("ComputeMF failed %d executions", compute.Failed)
	}
	storage, _ := topo.MetricsFor(MFStorageName)
	if storage.Executed == 0 {
		t.Error("MFStorage executed nothing")
	}
	result, _ := topo.MetricsFor(ResultStorageName)
	if result.Executed == 0 {
		t.Error("ResultStorage executed nothing")
	}

	// The global model must have trained on every positive action exactly
	// as the sequential path would: positives = actions with weight > 0.
	positives := 0
	for _, a := range actions {
		if sys.Weights().Weight(a) > 0 {
			positives++
		}
	}
	global, err := sys.Models.For(demographic.GlobalGroup)
	if err != nil {
		t.Fatal(err)
	}
	if st := global.Stats(); st.Received.Load() != uint64(len(actions)) || st.Trained.Load() != uint64(positives) {
		t.Errorf("global model counted received %d / trained %d, want %d / %d",
			st.Received.Load(), st.Trained.Load(), len(actions), positives)
	}
	// A user with positive actions must have a stored vector.
	var trainedUser string
	for _, a := range actions {
		if sys.Weights().Weight(a) > 0 {
			trainedUser = a.UserID
			break
		}
	}
	if _, _, known, _ := global.UserVector(context.Background(), trainedUser); !known {
		t.Errorf("user %s not trained by topology", trainedUser)
	}
}

func TestTopologyPopulatesAllStateStores(t *testing.T) {
	sys := newSystem(t)
	d, actions := generatedActions(t)
	d.FillCatalog(context.Background(), sys.Catalog)
	d.FillProfiles(context.Background(), sys.Profiles)
	runTopology(t, sys, actions, DefaultParallelism())

	// Histories recorded.
	histFound := false
	for _, u := range d.Users()[:50] {
		vids, err := sys.History.RecentVideos(context.Background(), u.ID, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(vids) > 0 {
			histFound = true
			break
		}
	}
	if !histFound {
		t.Error("no user histories recorded")
	}

	// Hot lists heated.
	var latest time.Time
	for _, a := range actions {
		if a.Timestamp.After(latest) {
			latest = a.Timestamp
		}
	}
	if now := sys.Now(); !now.Equal(latest) {
		t.Errorf("stream clock after replay = %v, want the latest action's %v", now, latest)
	}
	hot, err := sys.Hot.Hot(context.Background(), demographic.GlobalGroup, 10, sys.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 {
		t.Error("global hot list empty after topology run")
	}

	// Similar tables populated for at least one popular video.
	tables, _ := sys.Tables.For(demographic.GlobalGroup)
	simFound := false
	now := actions[len(actions)-1].Timestamp
	for _, v := range d.Videos() {
		similar, err := tables.Similar(context.Background(), v.Meta.ID, 5, now)
		if err != nil {
			t.Fatal(err)
		}
		if len(similar) > 0 {
			simFound = true
			break
		}
	}
	if !simFound {
		t.Error("no similar-video tables populated")
	}
}

// TestTopologyEndToEndRecommendations: after a streamed run, the recommend
// service must produce non-empty personalized lists.
func TestTopologyEndToEndRecommendations(t *testing.T) {
	sys := newSystem(t)
	d, actions := generatedActions(t)
	d.FillCatalog(context.Background(), sys.Catalog)
	d.FillProfiles(context.Background(), sys.Profiles)
	runTopology(t, sys, actions, DefaultParallelism())
	sys.SetClock(func() time.Time { return actions[len(actions)-1].Timestamp })

	served := 0
	for _, u := range d.Users()[:30] {
		res, err := sys.Recommend(context.Background(), recommend.Request{UserID: u.ID, N: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Videos) > 0 {
			served++
		}
	}
	if served < 25 {
		t.Errorf("only %d/30 users received recommendations", served)
	}
}

// TestTopologyMatchesSequentialIngest compares topology output with the
// sequential Ingest path on the same stream: identical histories for every
// user and closely matching hot lists. (Vector state differs slightly:
// bolts interleave read-modify-write cycles across keys, the documented
// production behaviour.)
func TestTopologyMatchesSequentialIngest(t *testing.T) {
	d, actions := generatedActions(t)

	topoSys := newSystem(t)
	d.FillCatalog(context.Background(), topoSys.Catalog)
	d.FillProfiles(context.Background(), topoSys.Profiles)
	runTopology(t, topoSys, actions, DefaultParallelism())

	seqSys := newSystem(t)
	d.FillCatalog(context.Background(), seqSys.Catalog)
	d.FillProfiles(context.Background(), seqSys.Profiles)
	for _, a := range actions {
		if err := seqSys.Ingest(context.Background(), a); err != nil {
			t.Fatal(err)
		}
	}

	now := actions[len(actions)-1].Timestamp
	for _, u := range d.Users() {
		want, _ := seqSys.History.RecentVideos(context.Background(), u.ID, 50)
		got, _ := topoSys.History.RecentVideos(context.Background(), u.ID, 50)
		if len(want) != len(got) {
			t.Fatalf("history length mismatch for %s: topo %d vs seq %d", u.ID, len(got), len(want))
		}
	}
	wantHot, _ := seqSys.Hot.Hot(context.Background(), demographic.GlobalGroup, 10, now)
	gotHot, _ := topoSys.Hot.Hot(context.Background(), demographic.GlobalGroup, 10, now)
	if len(wantHot) == 0 || len(gotHot) == 0 {
		t.Fatal("hot lists empty")
	}
	wantSet := map[string]bool{}
	for _, e := range wantHot {
		wantSet[e.ID] = true
	}
	overlap := 0
	for _, e := range gotHot {
		if wantSet[e.ID] {
			overlap++
		}
	}
	if overlap < len(gotHot)*7/10 {
		t.Errorf("hot list overlap %d/%d too low", overlap, len(gotHot))
	}
}

// TestTopologyParallelismSweep: the same stream must process correctly at
// several parallelism levels.
func TestTopologyParallelismSweep(t *testing.T) {
	d, actions := generatedActions(t)
	for _, p := range []int{1, 2, 8} {
		par := Parallelism{
			Spout: 1, ComputeMF: p, MFStorage: p, UserHistory: p,
			GetItemPairs: p, ItemPairSim: p, ResultStorage: p,
		}
		sys := newSystem(t)
		d.FillCatalog(context.Background(), sys.Catalog)
		d.FillProfiles(context.Background(), sys.Profiles)
		topo := runTopology(t, sys, actions, par)
		m, _ := topo.MetricsFor(ComputeMFName)
		if m.Executed != uint64(len(actions)) {
			t.Errorf("parallelism %d: executed %d, want %d", p, m.Executed, len(actions))
		}
	}
}

// TestTopologyGracefulCancellation: an endless production stream must stop
// cleanly on context cancellation, with all in-flight tuples drained and
// the state left serviceable.
func TestTopologyGracefulCancellation(t *testing.T) {
	sys := newSystem(t)
	d, _ := generatedActions(t)
	d.FillCatalog(context.Background(), sys.Catalog)
	d.FillProfiles(context.Background(), sys.Profiles)

	// An endless source: loops the generated stream forever.
	endless := func(int) Source {
		stream := d.Stream()
		return SourceFunc(func() (feedback.Action, bool) {
			a, ok := stream.Next()
			if !ok {
				stream = d.Stream()
				a, ok = stream.Next()
				if !ok {
					return feedback.Action{}, false
				}
			}
			return a, true
		})
	}
	topo, err := Build(sys, endless, DefaultParallelism())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- topo.Run(ctx) }()
	time.Sleep(300 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("topology did not stop after cancellation")
	}
	m, _ := topo.MetricsFor(ComputeMFName)
	if m.Executed == 0 {
		t.Fatal("nothing processed before cancellation")
	}
	// All queues must be drained: executed everything delivered.
	for _, name := range []string{ComputeMFName, UserHistoryName, GetItemPairsName} {
		cm, _ := topo.MetricsFor(name)
		if cm.QueueDepth != 0 {
			t.Errorf("%s queue depth = %d after drain", name, cm.QueueDepth)
		}
	}
	// The partially built state still serves.
	hot, err := sys.Hot.Hot(context.Background(), "global", 5, sys.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	_ = hot // presence depends on how far the stream got; no error is the bar
}

func TestSpoutFiltersUnqualifiedTuples(t *testing.T) {
	sys := newSystem(t)
	actions := []feedback.Action{
		{UserID: "", VideoID: "v1", Type: feedback.Click, Timestamp: time.Unix(0, 0)},
		{UserID: "u1", VideoID: "", Type: feedback.Click, Timestamp: time.Unix(1, 0)},
		{UserID: "u1", VideoID: "v1", Type: feedback.Click, Timestamp: time.Unix(2, 0)},
	}
	topo := runTopology(t, sys, actions, DefaultParallelism())
	m, _ := topo.MetricsFor(SpoutName)
	if m.Emitted != 1 {
		t.Errorf("spout emitted %d tuples, want 1 (two filtered)", m.Emitted)
	}
}

// erringSource yields its actions, then stops with err.
type erringSource struct {
	actions []feedback.Action
	err     error
}

func (s *erringSource) Next() (feedback.Action, bool) {
	if len(s.actions) == 0 {
		return feedback.Action{}, false
	}
	a := s.actions[0]
	s.actions = s.actions[1:]
	return a, true
}

func (s *erringSource) Err() error { return s.err }

// TestSourceErrorFailsRun: a source that stops on an error ends the run with
// that error, after the actions before it have been processed; one that
// stops with a nil Err is a clean end.
func TestSourceErrorFailsRun(t *testing.T) {
	stop := errors.New("log: line 3: malformed")
	for _, want := range []error{stop, nil} {
		sys := newSystem(t)
		src := &erringSource{
			actions: []feedback.Action{
				{UserID: "u1", VideoID: "v1", Type: feedback.Click, Timestamp: time.Unix(1, 0)},
				{UserID: "u2", VideoID: "v2", Type: feedback.Click, Timestamp: time.Unix(2, 0)},
			},
			err: want,
		}
		topo, err := Build(sys, func(int) Source { return src }, DefaultParallelism())
		if err != nil {
			t.Fatal(err)
		}
		err = topo.Run(context.Background())
		if !errors.Is(err, want) {
			t.Errorf("Run with source error %v = %v", want, err)
		}
		if m, _ := topo.MetricsFor(SpoutName); m.Emitted != 2 {
			t.Errorf("source error %v: spout emitted %d, want the 2 actions before it", want, m.Emitted)
		}
	}
}
