package history

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

// referenceRewrite is Append's record transform as it was before the one-pass
// rewrite: decode the record into events, build the new event slice,
// re-encode through []topn.Entry. The differential test below holds the new
// code to its output byte for byte.
func referenceRewrite(limit int, cur []byte, ok bool, videoID string, ts time.Time) []byte {
	var events []Event
	if ok {
		if dec, err := decode(cur); err == nil {
			events = dec
		}
	}
	out := make([]Event, 0, len(events)+1)
	out = append(out, Event{VideoID: videoID, Time: ts})
	for _, e := range events {
		if e.VideoID == videoID {
			continue
		}
		out = append(out, e)
	}
	if len(out) > limit {
		out = out[:limit]
	}
	entries := make([]topn.Entry, len(out))
	for i, e := range out {
		entries[i] = topn.Entry{ID: e.VideoID, Score: float64(e.Time.UnixMilli())}
	}
	return kvstore.EncodeEntries(entries)
}

// mangle returns a stored value to plant under a key: random bytes, the valid
// record cut short or with one byte changed, or a record that parses but that
// no writer would produce — over the limit, ids repeated, timestamps that are
// not whole milliseconds or not numbers at all.
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
	stamps := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1.5, 0, 1e-7, 1457308800000.75, 1e300, -1e300}
	entries := make([]topn.Entry, rng.Intn(2*limit+2))
	for i := range entries {
		entries[i] = topn.Entry{ID: fmt.Sprintf("v%d", rng.Intn(limit+3)), Score: stamps[rng.Intn(len(stamps))]}
	}
	return kvstore.EncodeEntries(entries)
}

// TestAppendMatchesDecodeReference drives random Append calls — repeated
// videos, full histories, out-of-order and far-future timestamps, planted
// garbage — through the store and through the decode/encode reference, and
// requires the stored bytes to agree after every step.
func TestAppendMatchesDecodeReference(t *testing.T) {
	ctx := context.Background()
	for _, limit := range []int{1, 4, 200} {
		rng := rand.New(rand.NewSource(int64(limit)))
		kv := kvstore.NewLocal(4)
		s, err := New("t", kv, limit)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Unix(1_457_308_800, 0)
		for step := 0; step < 10000; step++ {
			user := fmt.Sprintf("u%d", rng.Intn(3))
			key := kvstore.Key("t.hist", user)
			cur, ok, err := kv.Get(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(40) == 0 {
				cur, ok = mangle(rng, cur, limit), true
				if err := kv.Set(ctx, key, cur); err != nil {
					t.Fatal(err)
				}
			}
			video := fmt.Sprintf("v%d", rng.Intn(limit+8))
			ts := now
			switch rng.Intn(10) {
			case 0:
				ts = now.Add(-time.Duration(rng.Intn(48)) * time.Hour) // out of order
			case 1:
				ts = time.UnixMilli(rng.Int63() - math.MaxInt64/2) // anywhere, either sign
			default:
				now = now.Add(time.Duration(rng.Intn(7200_000)) * time.Millisecond)
				ts = now
			}
			want := referenceRewrite(limit, cur, ok, video, ts)
			if err := s.Append(ctx, user, video, ts); err != nil {
				t.Fatal(err)
			}
			got, _, err := kv.Get(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("limit %d step %d: Append(%s, %s, %v) on %x stored\n %x, reference\n %x",
					limit, step, user, video, ts, cur, got, want)
			}
		}
	}
}
