package topology

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"vidrec/internal/core"
	"vidrec/internal/demographic"
	"vidrec/internal/kvstore"
	"vidrec/internal/recommend"
	"vidrec/internal/simtable"
)

// TestTopologyAgainstNetworkedStore runs the full Figure 2 topology with all
// state in a remote TCP key-value store — the paper's actual deployment
// shape (Storm workers talking to a distributed KV service over the
// network). Its assertions check that state is present and readable through
// the remote store; TestReplayOverClientEqualsLocal checks the multi-writer
// records add up.
func TestTopologyAgainstNetworkedStore(t *testing.T) {
	backing := kvstore.NewLocal(64)
	srv, err := kvstore.NewServer(context.Background(), backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := kvstore.DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	params := core.DefaultParams()
	params.Factors = 8
	sys, err := recommend.NewSystem(cli, params, simtable.DefaultConfig(), recommend.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d, actions := generatedActions(t)
	if err := d.FillCatalog(context.Background(), sys.Catalog); err != nil {
		t.Fatal(err)
	}
	if err := d.FillProfiles(context.Background(), sys.Profiles); err != nil {
		t.Fatal(err)
	}

	par := Parallelism{Spout: 1, ComputeMF: 2, MFStorage: 2, UserHistory: 2,
		GetItemPairs: 2, ItemPairSim: 2, ResultStorage: 2}
	topo, err := Build(sys, func(int) Source { return SliceSource(actions) }, par)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	m, _ := topo.MetricsFor(ComputeMFName)
	if m.Executed != uint64(len(actions)) || m.Failed != 0 {
		t.Fatalf("ComputeMF executed %d (failed %d), want %d", m.Executed, m.Failed, len(actions))
	}

	// Single-writer state must be present and readable through the remote
	// store.
	global, err := sys.Models.For(demographic.GlobalGroup)
	if err != nil {
		t.Fatal(err)
	}
	var trainedUser string
	for _, a := range actions {
		if sys.Weights().Weight(a) > 0 {
			trainedUser = a.UserID
			break
		}
	}
	if _, _, known, err := global.UserVector(context.Background(), trainedUser); err != nil || !known {
		t.Errorf("user %s vector missing from remote store: known=%v err=%v", trainedUser, known, err)
	}
	vids, err := sys.History.RecentVideos(context.Background(), trainedUser, 5)
	if err != nil || len(vids) == 0 {
		t.Errorf("history for %s missing: %v, %v", trainedUser, vids, err)
	}
	tables, _ := sys.Tables.For(demographic.GlobalGroup)
	now := actions[len(actions)-1].Timestamp
	found := false
	for _, v := range d.Videos() {
		sim, err := tables.Similar(context.Background(), v.Meta.ID, 3, now)
		if err != nil {
			t.Fatal(err)
		}
		if len(sim) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no similar tables in remote store")
	}

	// End-to-end: serving works against the remote store.
	sys.SetClock(func() time.Time { return now })
	res, err := sys.Recommend(context.Background(), recommend.Request{UserID: trainedUser, N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Videos) == 0 {
		t.Error("no recommendations served from the remote store")
	}

	// Everything really lives server-side.
	if n, _ := backing.Len(context.Background()); n == 0 {
		t.Error("backing store empty — state did not cross the network")
	}
}

// TestReplayOverClientEqualsLocal replays one stream through the topology at
// DefaultParallelism twice — over a Local store, and over Client → Server →
// Local — and compares the records several tasks write at once: every
// model's global mean (four ComputeMF tasks fold into it) and every hot list
// (two UserHistory tasks heat it). The rewrites are ops the server executes
// atomically, so no fold or heat is lost over the network: n must match
// exactly, sums to 1e-9 relative (tasks interleave, so floating-point
// additions may happen in another order). Every action carries one
// timestamp, which makes the hot lists' decay order-independent too.
func TestReplayOverClientEqualsLocal(t *testing.T) {
	ctx := context.Background()
	d, actions := generatedActions(t)
	for i := range actions {
		actions[i].Timestamp = actions[0].Timestamp
	}
	replay := func(store kvstore.Store) {
		t.Helper()
		params := core.DefaultParams()
		params.Factors = 8
		sys, err := recommend.NewSystem(store, params, simtable.DefaultConfig(), recommend.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.FillCatalog(ctx, sys.Catalog); err != nil {
			t.Fatal(err)
		}
		if err := d.FillProfiles(ctx, sys.Profiles); err != nil {
			t.Fatal(err)
		}
		runTopology(t, sys, actions, DefaultParallelism())
	}
	local := kvstore.NewLocal(32)
	replay(local)
	backing := kvstore.NewLocal(32)
	srv, err := kvstore.NewServer(ctx, backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := kvstore.DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	replay(cli)

	want, got := sharedRecords(t, local), sharedRecords(t, backing)
	if len(want) == 0 {
		t.Fatal("the Local replay wrote no mean or hot-list record")
	}
	for key, w := range want {
		g, ok := got[key]
		switch {
		case !ok:
			t.Errorf("%s: missing over the network", key)
		case g[1] != w[1]:
			t.Errorf("%s: count %v over the network, %v over Local", key, g[1], w[1])
		case math.Abs(g[0]-w[0]) > 1e-9*math.Abs(w[0]):
			t.Errorf("%s: total %v over the network, %v over Local", key, g[0], w[0])
		}
	}
	if mu := want["sys/global.meta:mean"]; mu[1] != float64(len(actions)) {
		t.Errorf("global mean folded %v ratings over Local, want one per action (%d)", mu[1], len(actions))
	}
}

// sharedRecords reads every mean record (sum, n) and every hot list (total
// heat, entries) in st.
func sharedRecords(t *testing.T, st *kvstore.Local) map[string][2]float64 {
	t.Helper()
	out := make(map[string][2]float64)
	st.ForEach(func(key string, val []byte) bool {
		switch {
		case strings.HasSuffix(key, ".meta:mean"):
			vals, err := kvstore.DecodeFloats(val)
			if err != nil || len(vals) != 2 {
				t.Errorf("%s: corrupt mean record %x", key, val)
				return true
			}
			out[key] = [2]float64{vals[0], vals[1]}
		case strings.HasPrefix(key, "sys.hot:"):
			entries, err := kvstore.DecodeEntries(val[8:])
			if err != nil {
				t.Errorf("%s: corrupt hot list: %v", key, err)
				return true
			}
			heat := 0.0
			for _, e := range entries {
				heat += e.Score
			}
			out[key] = [2]float64{heat, float64(len(entries))}
		}
		return true
	})
	return out
}
