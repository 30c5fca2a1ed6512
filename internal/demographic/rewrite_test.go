package demographic

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"vidrec/internal/kvstore"
	"vidrec/internal/topn"
)

// referenceRewrite is Record's record transform as it was before the one-pass
// rewrite: decode the record into strings, rebuild it through topn.List,
// re-encode. The differential test below holds the new code to its output
// byte for byte.
func referenceRewrite(h *HotTracker, cur []byte, ok bool, videoID string, weight float64, ts time.Time) []byte {
	updatedAt := ts
	list := topn.NewList(h.size)
	if ok && len(cur) >= 8 {
		if ms, err := kvstore.DecodeInt64(cur[:8]); err == nil {
			prev := time.UnixMilli(ms)
			factor := h.damp(ts.Sub(prev))
			if factor > 1 {
				factor = 1
			}
			if ts.Before(prev) {
				updatedAt = prev
			}
			if entries, err := kvstore.DecodeEntries(cur[8:]); err == nil {
				for _, e := range entries {
					if v := e.Score * factor; v >= h.floor {
						list.Update(e.ID, v)
					}
				}
			}
		}
	}
	prevScore, _ := list.Score(videoID)
	list.Update(videoID, prevScore+weight)
	return append(kvstore.EncodeInt64(updatedAt.UnixMilli()), kvstore.EncodeEntries(list.All())...)
}

func videoName(n int) string {
	if n%2 == 0 {
		return fmt.Sprintf("v%d", n)
	}
	return fmt.Sprintf("a-longer-video-id-%04d", n)
}

// mangle returns a stored value to plant under a key: random bytes, the valid
// record cut short or with one byte changed, or a record that parses but that
// no writer would produce — out of order, over the limit, ids repeated,
// non-finite and negative scores, a clock anywhere in int64.
func mangle(rng *rand.Rand, valid []byte, limit int) []byte {
	switch k := rng.Intn(4); {
	case k == 0 || len(valid) == 0 && k < 3:
		junk := make([]byte, rng.Intn(40))
		rng.Read(junk)
		return junk
	case k == 1:
		return append([]byte(nil), valid[:rng.Intn(len(valid))]...)
	case k == 2:
		flipped := append([]byte(nil), valid...)
		flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
		return flipped
	}
	scores := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 1e-7, 0.25, 0.25, 0.5, 3}
	entries := make([]topn.Entry, rng.Intn(2*limit+2))
	for i := range entries {
		entries[i] = topn.Entry{ID: videoName(rng.Intn(limit + 3)), Score: scores[rng.Intn(len(scores))]}
	}
	clock := []int64{0, 3_600_000, -5, math.MaxInt64, math.MinInt64, rng.Int63()}[rng.Intn(6)]
	return append(kvstore.EncodeInt64(clock), kvstore.EncodeEntries(entries)...)
}

// TestRecordMatchesListReference drives random Record calls — tied counters,
// full lists, repeated ids, out-of-order and far-future timestamps, planted
// garbage — through the tracker and through the topn.List reference, and
// requires the stored bytes to agree after every step.
func TestRecordMatchesListReference(t *testing.T) {
	ctx := context.Background()
	for _, size := range []int{3, 10, 100} {
		rng := rand.New(rand.NewSource(int64(size)))
		kv := kvstore.NewLocal(4)
		h, err := NewHotTracker("t", kv, 6*time.Hour, size)
		if err != nil {
			t.Fatal(err)
		}
		weights := []float64{1, 1, 0.5, 0.25, 2, 1e-7}
		now := time.Unix(1_457_308_800, 0)
		for step := 0; step < 12000; step++ {
			group := fmt.Sprintf("g%d", rng.Intn(3))
			key := kvstore.Key("t.hot", group)
			cur, ok, err := kv.Get(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(40) == 0 {
				cur, ok = mangle(rng, cur, size), true
				if err := kv.Set(ctx, key, cur); err != nil {
					t.Fatal(err)
				}
			}
			video := videoName(rng.Intn(size + 8))
			weight := weights[rng.Intn(len(weights))]
			ts := now
			switch rng.Intn(10) {
			case 0:
				ts = now.Add(-time.Duration(rng.Intn(48)) * time.Hour) // out of order
			case 1:
				ts = now.Add(time.Duration(rng.Intn(400)) * 24 * time.Hour) // far future, not kept
			case 2:
				ts = time.UnixMilli(rng.Int63n(math.MaxInt64 / 2)) // anywhere
			default:
				now = now.Add(time.Duration(rng.Intn(7200)) * time.Second)
				ts = now
			}
			want := referenceRewrite(h, cur, ok, video, weight, ts)
			if err := h.Record(ctx, group, video, weight, ts); err != nil {
				t.Fatal(err)
			}
			got, _, err := kv.Get(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("size %d step %d: Record(%s, %s, %v, %v) on %x stored\n %x, reference\n %x",
					size, step, group, video, weight, ts, cur, got, want)
			}
		}
	}
}
