package simtable

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

// referenceRewrite is UpdateDirected's record transform as it was before the
// one-pass rewrite: decode the record into strings, rebuild it through
// topn.List twice, re-encode. The differential test below holds the new code
// to its output byte for byte.
func referenceRewrite(cfg Config, cur []byte, ok bool, other string, score float64, ts time.Time) []byte {
	rebuild := func(entries []topn.Entry, skip string) *topn.List {
		list := topn.NewList(cfg.TableSize)
		for _, e := range entries {
			if e.ID != skip {
				list.Update(e.ID, e.Score)
			}
		}
		return list
	}
	tb := table{updatedAt: ts}
	if ok {
		if dec, err := decodeTable(cur); err == nil {
			factor := cfg.Damp(ts.Sub(dec.updatedAt))
			if factor > 1 {
				factor = 1
			}
			list := topn.NewList(cfg.TableSize)
			for _, e := range dec.entries {
				if decayed := e.Score * factor; decayed >= cfg.ScoreFloor {
					list.Update(e.ID, decayed)
				}
			}
			tb.entries = list.All()
			if ts.Before(dec.updatedAt) {
				tb.updatedAt = dec.updatedAt
			}
		}
	}
	list := rebuild(tb.entries, "")
	if score >= cfg.ScoreFloor {
		list.Update(other, score)
	} else {
		// List.Remove is gone; rebuilding a sorted, duplicate-free list
		// without the id leaves the others where they were.
		list = rebuild(list.All(), other)
	}
	return append(kvstore.EncodeInt64(tb.updatedAt.UnixMilli()), kvstore.EncodeEntries(list.All())...)
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
		entries[i] = topn.Entry{ID: fmt.Sprintf("v%d", rng.Intn(limit+3)), Score: scores[rng.Intn(len(scores))]}
	}
	clock := []int64{0, 3_600_000, -5, math.MaxInt64, math.MinInt64, rng.Int63()}[rng.Intn(6)]
	return append(kvstore.EncodeInt64(clock), kvstore.EncodeEntries(entries)...)
}

// TestUpdateDirectedMatchesListReference drives random updates — ties, scores
// below the floor, full lists, repeated ids, out-of-order and far-future
// timestamps, planted garbage — through UpdateDirected and through the
// topn.List reference, and requires the stored bytes to agree after every
// step.
func TestUpdateDirectedMatchesListReference(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range []Config{testConfig(), DefaultConfig(), {Beta: 0.3, Xi: time.Hour, TableSize: 3, ScoreFloor: 0}} {
		rng := rand.New(rand.NewSource(int64(cfg.TableSize)))
		kv := kvstore.NewLocal(4)
		tb, err := New("t", kv, cfg)
		if err != nil {
			t.Fatal(err)
		}
		scores := []float64{0.5, 0.5, 0.25, 0.9, 1e-7, 0, -0.3, cfg.ScoreFloor}
		now := time.Unix(1_457_308_800, 0)
		for step := 0; step < 12000; step++ {
			owner := fmt.Sprintf("o%d", rng.Intn(4))
			key := kvstore.Key("t.sim", owner)
			cur, ok, err := kv.Get(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(40) == 0 {
				cur, ok = mangle(rng, cur, cfg.TableSize), true
				if err := kv.Set(ctx, key, cur); err != nil {
					t.Fatal(err)
				}
			}
			other := fmt.Sprintf("v%d", rng.Intn(cfg.TableSize+8))
			score := scores[rng.Intn(len(scores))]
			if rng.Intn(3) == 0 {
				score = rng.Float64()
			}
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
			want := referenceRewrite(cfg, cur, ok, other, score, ts)
			if err := tb.UpdateDirected(ctx, owner, other, score, ts); err != nil {
				t.Fatal(err)
			}
			got, _, err := kv.Get(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("TableSize %d step %d: UpdateDirected(%s, %s, %v, %v) on %x stored\n %x, reference\n %x",
					cfg.TableSize, step, owner, other, score, ts, cur, got, want)
			}
		}
	}
}

// TestRewriteIsPureAndOwnsItsOutput pins what a retrying store relies on:
// the rewrite op may run more than once on the same bytes with the same
// result, and what it returned does not change when those bytes later do.
func TestRewriteIsPureAndOwnsItsOutput(t *testing.T) {
	tb := newTables(t, testConfig())
	cur := referenceRewrite(tb.cfg, nil, false, "a", 0.5, at(0))
	cur = referenceRewrite(tb.cfg, cur, true, "b", 0.7, at(1))
	before := append([]byte(nil), cur...)
	op, err := tb.DirectedOp("x", "c", 0.6, at(2))
	if err != nil {
		t.Fatal(err)
	}
	first, _ := op.Apply(cur, true)
	second, _ := op.Apply(cur, true)
	if !bytes.Equal(cur, before) {
		t.Fatal("rewrite modified the stored bytes it was given")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("two runs on the same bytes differ:\n %x\n %x", first, second)
	}
	for i := range cur {
		cur[i] = 0xff
	}
	if second, _ = op.Apply(before, true); !bytes.Equal(first, second) {
		t.Fatal("rewrite's output aliases the stored bytes it was given")
	}
}
