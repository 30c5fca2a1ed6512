package kvstore

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func meanFolds(key string, ratings ...float64) []Op {
	ops := make([]Op, len(ratings))
	for i, r := range ratings {
		ops[i] = Op{Kind: OpMeanFold, Key: key, Score: r}
	}
	return ops
}

func readMean(t *testing.T, st Store, key string) (sum, n float64) {
	t.Helper()
	raw, ok, err := st.Get(context.Background(), key)
	if err != nil || !ok {
		t.Fatalf("mean record %s: ok=%v err=%v", key, ok, err)
	}
	vals, err := DecodeFloats(raw)
	if err != nil || len(vals) != 2 {
		t.Fatalf("mean record %s is corrupt: %x", key, raw)
	}
	return vals[0], vals[1]
}

// TestServerRejectsInvalidFrame sends frames the server must refuse whole:
// a bad op anywhere in the batch gets an error reply and applies nothing.
func TestServerRejectsInvalidFrame(t *testing.T) {
	srv, cli := newTestServer(t)
	ctx := context.Background()
	good := Op{Kind: OpHot, Key: "hot", ID: "v", Score: 1, Ts: time.Unix(1, 0), Limit: 10, HalfLife: time.Hour}
	bad := []Op{
		{Kind: 0, Key: "k"},
		{Kind: OpMeanFold + 1, Key: "k"},
		{Kind: OpSet},
		{Kind: OpHistory, Key: "k", ID: "v"},
		{Kind: OpHistory, Key: "k", ID: "v", Limit: maxOpLimit + 1},
		{Kind: OpHot, Key: "k", ID: "v", Score: math.NaN(), Limit: 10, HalfLife: time.Hour},
		{Kind: OpSimilar, Key: "k", ID: "v", Score: 1, Floor: math.Inf(-1), Limit: 10, HalfLife: time.Hour},
		{Kind: OpSimilar, Key: "k", ID: "v", Score: 1, Limit: 10},
		{Kind: OpMeanFold, Key: "k", Score: math.Inf(1)},
	}
	for _, op := range bad {
		n, err := cli.ApplyOps(ctx, []Op{good, op})
		if err == nil || n != 0 {
			t.Errorf("frame with %+v: applied %d, err %v; want a refusal", op, n, err)
		}
	}
	if n, _ := srv.backing.Len(ctx); n != 0 {
		t.Fatalf("refused frames stored %d keys", n)
	}
	if n, err := cli.ApplyOps(ctx, []Op{good}); n != 1 || err != nil {
		t.Fatalf("the valid frame: applied %d, err %v", n, err)
	}
}

// TestResilientApplyResendsOnlyUnappliedOps fails op 3 of a six-fold frame
// on the server side. The reply names the three ops applied before it, so
// the retry sends only the last three: each fold lands exactly once.
func TestResilientApplyResendsOnlyUnappliedOps(t *testing.T) {
	ctx := context.Background()
	base := NewLocal(4)
	faulty := NewFaulty(base, 1)
	faulty.SetSchedule([]FaultPhase{{Ops: 3}, {Ops: 1, FailRate: 1}, {}})
	// Embedding hides Faulty's ApplyOps, so the server applies the frame one
	// op at a time and the fault lands on op 3, not on the whole frame.
	srv, err := NewServer(ctx, struct{ Store }{faulty}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if n, err := cli.ApplyOps(ctx, meanFolds("m", 1, 2, 3, 4, 5, 6)); n != 3 || err == nil {
		t.Fatalf("client reported %d applied, err %v; want 3 and the injected fault", n, err)
	}
	if sum, n := readMean(t, base, "m"); sum != 6 || n != 3 {
		t.Fatalf("after the failed frame the record holds sum %v over %v, want 6 over 3", sum, n)
	}

	r := NewResilient(cli, ResilienceConfig{MaxRetries: 2}, 7)
	r.SetSleep(noSleep)
	faulty.SetSchedule([]FaultPhase{{Ops: 3}, {Ops: 1, FailRate: 1}, {}})
	if n, err := r.ApplyOps(ctx, meanFolds("r", 1, 2, 3, 4, 5, 6)); n != 6 || err != nil {
		t.Fatalf("Resilient applied %d, err %v; want all 6", n, err)
	}
	if sum, n := readMean(t, base, "r"); sum != 21 || n != 6 {
		t.Fatalf("record holds sum %v over %v, want 21 over 6: a fold was lost or repeated", sum, n)
	}
	if s := r.Stats(); s.Retries != 1 {
		t.Fatalf("retries = %d, want 1", s.Retries)
	}
	if got := faulty.Ops(); got != 7 {
		t.Fatalf("the server ran %d ops, want 4 then the 3 unapplied", got)
	}
}

// TestFaultyDecidesOncePerBatch pins the injector's batch contract: a whole
// batch is one operation for the schedule, and a faulted batch applies
// nothing.
func TestFaultyDecidesOncePerBatch(t *testing.T) {
	ctx := context.Background()
	base := NewLocal(4)
	f := NewFaulty(base, 1)
	f.SetSchedule([]FaultPhase{{Ops: 1}, {FailRate: 1}})
	if n, err := Apply(ctx, f, meanFolds("m", 1, 1, 1)...); n != 3 || err != nil {
		t.Fatalf("first batch: applied %d, err %v", n, err)
	}
	if n, err := Apply(ctx, f, meanFolds("m", 1, 1, 1)...); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("second batch: applied %d, err %v; want 0 and ErrInjected", n, err)
	}
	if got := f.Ops(); got != 2 {
		t.Fatalf("injector counted %d operations, want 2 batches", got)
	}
	if _, n := readMean(t, base, "m"); n != 3 {
		t.Fatalf("record counts %v folds, want the first batch's 3", n)
	}
}

// FuzzApplyOp applies an arbitrary op to arbitrary stored bytes. Apply must
// never panic or modify its input; an op the server would accept must also
// produce a value of its record's format, within its limit, the same on a
// second run.
func FuzzApplyOp(f *testing.F) {
	list := append(EncodeInt64(3_600_000), EncodeEntries(nil)...)
	f.Add(uint8(OpSimilar), "v1", 0.5, 1e-6, int64(7200), int64(0), int64(time.Hour), 50, list, true)
	f.Add(uint8(OpHot), "v1", 1.0, 1e-6, int64(-5), int64(999), int64(time.Hour), 3, []byte{1, 2, 3}, true)
	f.Add(uint8(OpHistory), "v1", 0.0, 0.0, int64(math.MaxInt32), int64(0), int64(0), 2, []byte{}, false)
	f.Add(uint8(OpMeanFold), "", 1.0, 0.0, int64(0), int64(0), int64(0), 0, EncodeFloats([]float64{3, 4}), true)
	f.Add(uint8(OpSet), "x", 0.0, 0.0, int64(0), int64(0), int64(0), 0, []byte("old"), true)
	f.Add(uint8(9), "v1", math.NaN(), math.Inf(1), int64(math.MinInt64), int64(-1), int64(-1), -4, list, true)
	f.Fuzz(func(t *testing.T, kind uint8, id string, score, floor float64, sec, nsec, halfLife int64, limit int, cur []byte, exists bool) {
		op := Op{Kind: OpKind(kind), Key: "k", Val: []byte("new"), ID: id, Score: score, Floor: floor,
			Ts: time.Unix(sec, nsec), HalfLife: time.Duration(halfLife), Limit: limit}
		before := bytes.Clone(cur)
		next, keep := op.Apply(cur, exists)
		if !bytes.Equal(cur, before) {
			t.Fatalf("Apply modified the stored bytes: %x became %x", before, cur)
		}
		if op.validate() != nil {
			return // the server refuses it before it runs
		}
		again, keepAgain := op.Apply(cur, exists)
		if !keep || !keepAgain || !bytes.Equal(next, again) {
			t.Fatalf("two runs differ or delete: %x (%v) then %x (%v)", next, keep, again, keepAgain)
		}
		switch op.Kind {
		case OpSet:
			if !bytes.Equal(next, op.Val) {
				t.Fatalf("Set stored %x, want %x", next, op.Val)
			}
		case OpMeanFold:
			if vals, err := DecodeFloats(next); err != nil || len(vals) != 2 {
				t.Fatalf("mean fold wrote %x, not two floats", next)
			}
		case OpSimilar, OpHot:
			if len(next) < 8 {
				t.Fatalf("list rewrite wrote %x, no clock", next)
			}
			checkEntries(t, next[8:], op.Limit, true)
		case OpHistory:
			entries := checkEntries(t, next, op.Limit, false) // a history keeps repeats it was handed
			if len(entries) == 0 || entries[0] != op.ID {
				t.Fatalf("history %q does not start with %q", entries, op.ID)
			}
		}
	})
}

// checkEntries decodes an entry list and requires at most limit entries —
// one per id when unique — returning the ids.
func checkEntries(t *testing.T, b []byte, limit int, unique bool) []string {
	t.Helper()
	entries, err := DecodeEntries(b)
	if err != nil {
		t.Fatalf("rewrite wrote an undecodable list %x: %v", b, err)
	}
	if len(entries) > limit {
		t.Fatalf("rewrite kept %d entries, limit %d", len(entries), limit)
	}
	ids := make([]string, len(entries))
	seen := make(map[string]bool, len(entries))
	for i, e := range entries {
		if unique && seen[e.ID] {
			t.Fatalf("rewrite repeated id %q", e.ID)
		}
		seen[e.ID] = true
		ids[i] = e.ID
	}
	return ids
}
