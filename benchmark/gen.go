package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"vidrec/internal/dataset"
	"vidrec/internal/feedback"
)

// dataSpec sizes a workload's synthetic corpus with the same knobs recgen
// exposes. The first trainDays are what the server loads and replays at
// startup; the days after them are held out — the first scores recall, all of
// them feed the writer connection.
type dataSpec struct {
	Users        int `json:"users"`
	Videos       int `json:"videos"`
	TrainDays    int `json:"train_days"`
	HeldOutDays  int `json:"held_out_days"`
	EventsPerDay int `json:"events_per_day"`
}

// corpus is one generated dataset, split the way a run uses it.
type corpus struct {
	data    *dataset.Dataset
	train   []feedback.Action
	heldOut []feedback.Action // every action after the training days, timestamp order
	testDay []feedback.Action // the first held-out day: the recall test set
	// watched maps each user to the distinct videos their positive training
	// actions touched — what the server's history must exclude from a slate.
	watched map[string]map[string]bool
	videos  map[string]bool
}

func generateCorpus(spec dataSpec, seed uint64) (*corpus, error) {
	cfg := dataset.DefaultConfig()
	cfg.Seed = seed
	cfg.Users = spec.Users
	cfg.Videos = spec.Videos
	cfg.Days = spec.TrainDays + spec.HeldOutDays
	cfg.EventsPerDay = spec.EventsPerDay
	d, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	c := &corpus{data: d, watched: make(map[string]map[string]bool), videos: make(map[string]bool)}
	c.train, c.heldOut = dataset.SplitByDay(d.AllActions(), cfg.Start, spec.TrainDays)
	// A funnel's later actions can carry timestamps past the next event's
	// impressions; the single writer must see a non-decreasing stream.
	sort.SliceStable(c.heldOut, func(i, j int) bool { return c.heldOut[i].Timestamp.Before(c.heldOut[j].Timestamp) })
	c.testDay, _ = dataset.SplitByDay(c.heldOut, cfg.Start, spec.TrainDays+1)
	weights := feedback.DefaultWeights()
	for _, a := range c.train {
		if weights.Weight(a) <= 0 {
			continue
		}
		set := c.watched[a.UserID]
		if set == nil {
			set = make(map[string]bool)
			c.watched[a.UserID] = set
		}
		set[a.VideoID] = true
	}
	for _, v := range d.Videos() {
		c.videos[v.Meta.ID] = true
	}
	return c, nil
}

// writeTSV writes the files recserve -data reads: the training actions, the
// catalog and the profiles. Nothing else about the corpus reaches the server.
func (c *corpus) writeTSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name  string
		write func(*os.File) error
	}{
		{"actions.tsv", func(f *os.File) error { return dataset.WriteActions(f, c.train) }},
		{"catalog.tsv", func(f *os.File) error { return dataset.WriteCatalog(f, c.data.Videos()) }},
		{"profiles.tsv", func(f *os.File) error { return dataset.WriteProfiles(f, c.data.Users()) }},
	}
	for _, spec := range files {
		f, err := os.Create(filepath.Join(dir, spec.name))
		if err != nil {
			return err
		}
		if err := spec.write(f); err != nil {
			_ = f.Close() // the write error is the one reported
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// recRequest is one /recommend of the seeded request trace.
type recRequest struct {
	user  string
	video string // "" for "guess you like"
	known bool   // the user has training actions
	raw   []byte
}

const (
	slateSize  = 10
	coldShare  = 0.15 // requests from users the server has never seen
	videoShare = 0.30 // requests that carry the video being watched
)

func recommendPath(user, video string, n int) string {
	p := "/recommend?user=" + user + "&n=" + strconv.Itoa(n)
	if video != "" {
		p += "&video=" + video
	}
	return p
}

// buildRequests draws count requests: known users in proportion to their
// training activity (a uniform draw over training actions), never-seen users
// for coldShare of them, and the current video — popularity-weighted the same
// way — on videoShare of them. A pure function of (train, seed, count).
func buildRequests(train []feedback.Action, seed uint64, count int) []recRequest {
	rng := rand.New(rand.NewPCG(seed, 0x7265717565737473)) // "requests"
	reqs := make([]recRequest, count)
	for i := range reqs {
		r := recRequest{known: true}
		if rng.Float64() < coldShare {
			r.user, r.known = fmt.Sprintf("x%06d", rng.IntN(1_000_000)), false
		} else {
			r.user = train[rng.IntN(len(train))].UserID
		}
		if rng.Float64() < videoShare {
			r.video = train[rng.IntN(len(train))].VideoID
		}
		r.raw = renderGET(recommendPath(r.user, r.video, slateSize))
		reqs[i] = r
	}
	return reqs
}

// traceUsers returns the distinct users of a request trace in first-seen
// order: the warm-up pass requests each once.
func traceUsers(reqs []recRequest) []string {
	seen := make(map[string]bool, len(reqs))
	var users []string
	for _, r := range reqs {
		if !seen[r.user] {
			seen[r.user] = true
			users = append(users, r.user)
		}
	}
	return users
}

// actionLine renders one action in the TSV form POST /action accepts.
func actionLine(tsMs int64, user, video string, typ feedback.ActionType, view, length time.Duration) []byte {
	return []byte(fmt.Sprintf("%d\t%s\t%s\t%s\t%d\t%d\n", tsMs, user, video, typ, view.Milliseconds(), length.Milliseconds()))
}

// actRequest is one pre-rendered POST /action of the writer's trace.
type actRequest struct {
	tsMs int64
	raw  []byte
}

func buildActionRequests(actions []feedback.Action) []actRequest {
	out := make([]actRequest, len(actions))
	for i, a := range actions {
		ts := a.Timestamp.UnixMilli()
		out[i] = actRequest{tsMs: ts, raw: renderPOST("/action", actionLine(ts, a.UserID, a.VideoID, a.Type, a.ViewTime, a.VideoLength))}
	}
	return out
}
