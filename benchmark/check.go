package main

import (
	"encoding/json"
	"fmt"

	"vidrec/internal/eval"
	"vidrec/internal/feedback"
	"vidrec/internal/recommend"
)

// personalisedFloor is the share of known-user slates that must come from
// the personalised path (candidates > 0) and not the hot-list fallback.
const personalisedFloor = 0.7

// verifySlates is the verification pass: every body is decoded and checked
// against what the generator knows about the corpus. It runs before any
// write traffic, so a user's generated history is exactly what the server
// holds — up to the server's own history limit, beyond which the oldest
// videos legitimately leave the exclusion set.
func verifySlates(res *runResult, c *httpConn, corp *corpus, reqs []recRequest) {
	historyLimit := recommend.DefaultOptions().HistoryLimit
	sent, ok := 0, 0
	known, personalised := 0, 0
	var firstBad string
	bad := func(r recRequest, format string, args ...any) {
		if firstBad == "" {
			firstBad = fmt.Sprintf("user=%s video=%s: ", r.user, r.video) + fmt.Sprintf(format, args...)
		}
	}
	for _, r := range reqs {
		sent++
		status, err := c.roundTrip(r.raw)
		if err != nil || status != 200 {
			bad(r, "status %d, err %v", status, err)
			continue
		}
		var body recBody
		if err := json.Unmarshal(c.body, &body); err != nil {
			bad(r, "undecodable body: %v", err)
			continue
		}
		good := true
		if len(body.Videos) != slateSize {
			bad(r, "%d videos, want %d", len(body.Videos), slateSize)
			good = false
		}
		if body.Degraded {
			bad(r, "degraded response on a healthy store")
			good = false
		}
		seen := make(map[string]bool, len(body.Videos))
		watched := corp.watched[r.user]
		for _, v := range body.Videos {
			switch {
			case seen[v.ID]:
				bad(r, "video %s twice in one slate", v.ID)
				good = false
			case !corp.videos[v.ID]:
				bad(r, "video %s is not in the catalog", v.ID)
				good = false
			case v.ID == r.video:
				bad(r, "the video being watched was recommended")
				good = false
			case len(watched) <= historyLimit && watched[v.ID]:
				bad(r, "video %s is in the user's history", v.ID)
				good = false
			}
			seen[v.ID] = true
		}
		if r.known {
			known++
			if body.Candidates > 0 {
				personalised++
			}
		}
		if good {
			ok++
		}
	}
	res.phase("verification", sent, ok)
	res.check("verification.slates", ok == sent, "%d of %d slates pass (200, %d distinct catalog videos, none watched, not degraded)%s",
		ok, sent, slateSize, firstBadSuffix(firstBad))
	share := float64(personalised) / float64(max(known, 1))
	res.check("verification.personalised_share", share >= personalisedFloor, "%.3f of %d known-user slates have candidates > 0, floor %.2f",
		share, known, personalisedFloor)
}

func firstBadSuffix(s string) string {
	if s == "" {
		return ""
	}
	return "; first failure: " + s
}

// recallOverHTTP scores held-out-day recall@10 (Eq. 13) from outside: one
// /recommend?n=10 for every user with a positive action on the test day.
func recallOverHTTP(res *runResult, c *httpConn, corp *corpus) (float64, error) {
	ts := eval.BuildTestSet(corp.testDay, feedback.DefaultWeights())
	sent, ok := 0, 0
	recall, err := eval.RecallAtN(eval.RecommenderFunc(func(user string, n int) ([]string, error) {
		sent++
		var body recBody
		if err := getJSON(c, recommendPath(user, "", n), &body); err != nil {
			return nil, err
		}
		ok++
		ids := make([]string, len(body.Videos))
		for i, v := range body.Videos {
			ids[i] = v.ID
		}
		return ids, nil
	}), ts, slateSize)
	res.phase("recall", sent, ok)
	return recall, err
}
