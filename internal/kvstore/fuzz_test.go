package kvstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
	"time"

	"vidrec/internal/topn"
)

// The fuzz targets cover the two decode surfaces that face untrusted bytes:
// the value codecs (anything read back from a store another process wrote)
// and the gob frames of the TCP transport. The contract under fuzzing is the
// same everywhere: arbitrary input may be rejected with an error but must
// never panic, and anything that decodes successfully must survive an
// encode→decode round trip unchanged.

func FuzzDecodeEntries(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeEntries(nil))
	f.Add(EncodeEntries([]topn.Entry{{ID: "v00001", Score: 0.5}, {ID: "v00002", Score: -1.25}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge uvarint count
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeEntries(data)
		if err != nil {
			return
		}
		again, err := DecodeEntries(EncodeEntries(entries))
		if err != nil {
			t.Fatalf("re-decoding a freshly encoded list failed: %v", err)
		}
		if len(entries) != len(again) {
			t.Fatalf("entry count changed across round trip: %d vs %d", len(entries), len(again))
		}
		// Scores compare as bit patterns, not ==: the codec is canonical down
		// to NaN payloads, which float equality cannot see (NaN != NaN).
		for i := range entries {
			if entries[i].ID != again[i].ID ||
				math.Float64bits(entries[i].Score) != math.Float64bits(again[i].Score) {
				t.Fatalf("entry %d changed across round trip:\n  first:  %#v\n  second: %#v", i, entries[i], again[i])
			}
		}
	})
}

// referenceDecodeEntries is the entry-list parser as DecodeEntries had it
// inline before EntryCursor existed, kept here so the cursor is fuzzed
// against something other than itself. One line differs: the original added
// 8 to an entry's length before bounding it, so a length within 8 of 2^64
// wrapped, passed, and the slice expression panicked.
func referenceDecodeEntries(b []byte) ([]topn.Entry, bool) {
	n, off := binary.Uvarint(b)
	if off <= 0 || n > uint64(len(b)) {
		return nil, false
	}
	entries := make([]topn.Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		l, m := binary.Uvarint(b[off:])
		if m <= 0 {
			return nil, false
		}
		off += m
		if rest := uint64(len(b) - off); l > rest || rest-l < 8 {
			return nil, false
		}
		id := string(b[off : off+int(l)])
		off += int(l)
		entries = append(entries, topn.Entry{ID: id, Score: math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))})
		off += 8
	}
	return entries, true
}

// FuzzEntryCursor holds the non-allocating cursor to the reference parser:
// it never panics, accepts exactly the values the reference (and so
// DecodeEntries) accepts, and yields the same ids and score bits in order.
func FuzzEntryCursor(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeEntries(nil))
	f.Add(EncodeEntries([]topn.Entry{{ID: "v00001", Score: 0.5}, {ID: "", Score: math.NaN()}, {ID: "v00001", Score: -1.25}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})                            // huge uvarint count
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 2, 3, 4, 5, 6, 7, 8}) // id length 2^64-1: wrapped past the bound once
	f.Add([]byte{2, 1, 'a', 0, 0, 0, 0, 0, 0, 0xe0, 0x3f, 1, 'b'})                                       // second entry truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantOK := referenceDecodeEntries(data)
		decoded, err := DecodeEntries(data)
		if (err == nil) != wantOK {
			t.Fatalf("DecodeEntries error = %v, reference accepts = %v", err, wantOK)
		}
		var got []topn.Entry
		c, err := NewEntryCursor(data)
		for err == nil {
			var e RawEntry
			var more bool
			if e, more, err = c.Next(); err != nil || !more {
				break
			}
			got = append(got, topn.Entry{ID: string(e.ID), Score: e.Score})
		}
		if (err == nil) != wantOK {
			t.Fatalf("cursor error = %v, reference accepts = %v", err, wantOK)
		}
		if !wantOK {
			return
		}
		if len(got) != len(want) || len(decoded) != len(want) {
			t.Fatalf("entry counts: cursor %d, DecodeEntries %d, reference %d", len(got), len(decoded), len(want))
		}
		for i := range want {
			for _, e := range []topn.Entry{got[i], decoded[i]} {
				if e.ID != want[i].ID || math.Float64bits(e.Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("entry %d = %#v, reference %#v", i, e, want[i])
				}
			}
		}
	})
}

func FuzzDecodeStrings(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeStrings(nil))
	f.Add(EncodeStrings([]string{"v00001", "", "a long history entry id"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ss, err := DecodeStrings(data)
		if err != nil {
			return
		}
		again, err := DecodeStrings(EncodeStrings(ss))
		if err != nil {
			t.Fatalf("re-decoding a freshly encoded list failed: %v", err)
		}
		if !reflect.DeepEqual(noneOrSame(ss), noneOrSame(again)) {
			t.Fatalf("string list changed across round trip: %q vs %q", ss, again)
		}
	})
}

func FuzzDecodeFloats(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeFloats([]float64{0, 1.5, -2.25}))
	f.Add([]byte{1, 2, 3}) // not a multiple of 8
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeFloats(data)
		if err != nil {
			return
		}
		// The float codec is fixed-width and canonical: encode(decode(b))
		// must reproduce the input bytes exactly (NaN payloads included).
		if got := EncodeFloats(v); !bytes.Equal(got, data) {
			t.Fatalf("float codec is not canonical: %x re-encoded as %x", data, got)
		}
	})
}

// FuzzNetRequestFrame feeds arbitrary bytes to the gob decoder the KV server
// runs against every inbound connection: malformed frames must error, never
// panic or tear state, well-formed frames must round trip, and the server
// must answer a decoded frame without panicking — refusing an op batch with
// a bad op before applying any of it.
func FuzzNetRequestFrame(f *testing.F) {
	frame := func(req request) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&req); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add(frame(request{Op: opGet, Key: "sys/global.uv:u00001"}))
	f.Add(frame(request{Op: opSet, Key: "sys.hot:global", Val: []byte{1, 2, 3}}))
	f.Add(frame(request{Op: opMGet, Keys: []string{"a", "b"}}))
	f.Add(frame(request{Op: opApply, Ops: []Op{
		{Kind: OpMeanFold, Key: "sys/global.meta:mean", Score: 1},
		{Kind: OpHistory, Key: "sys.hist:u1", ID: "v1", Ts: time.UnixMilli(1_457_308_800_000), Limit: 200},
		{Kind: OpHot, Key: "sys.hot:global", ID: "v1", Score: 2.5, Ts: time.UnixMilli(1_457_308_800_000), Limit: 100, HalfLife: 24 * time.Hour, Floor: 1e-6},
		{Kind: OpSimilar, Key: "sys/global.sim:v1", ID: "v2", Score: 0.4, Ts: time.UnixMilli(1_457_308_800_000), Limit: 50, HalfLife: 24 * time.Hour, Floor: 1e-6},
		{Kind: OpSet, Key: "sys/global.ub:u1", Val: EncodeFloat(0.25)},
		{Kind: OpHot, Key: "sys.hot:global", ID: "v1", Score: math.NaN(), Limit: 100, HalfLife: time.Hour},
	}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req request
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&req); err != nil {
			t.Fatalf("re-encoding a decoded request failed: %v", err)
		}
		var again request
		if err := gob.NewDecoder(&buf).Decode(&again); err != nil {
			t.Fatalf("decoding a freshly encoded request failed: %v", err)
		}
		if req.Op != again.Op || req.Key != again.Key ||
			!reflect.DeepEqual(noneOrSame(req.Keys), noneOrSame(again.Keys)) ||
			!bytes.Equal(req.Val, again.Val) || !sameOps(req.Ops, again.Ops) {
			t.Fatalf("request changed across round trip:\n  first:  %#v\n  second: %#v", req, again)
		}

		backing := NewLocal(1)
		resp := (&Server{backing: backing}).handle(context.Background(), &req)
		if req.Op != opApply {
			return
		}
		for i := range req.Ops {
			if req.Ops[i].validate() != nil {
				if n, _ := backing.Len(context.Background()); resp.ErrMsg == "" || resp.N != 0 || n != 0 {
					t.Fatalf("a frame with an invalid op got %+v and stored %d keys", resp, n)
				}
				return
			}
		}
		if resp.ErrMsg != "" || resp.N != len(req.Ops) {
			t.Fatalf("a valid frame of %d ops got %+v", len(req.Ops), resp)
		}
	})
}

// sameOps compares op batches field by field: floats by their bits, so NaN
// payloads compare equal, and times as instants.
func sameOps(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Kind != y.Kind || x.Key != y.Key || !bytes.Equal(x.Val, y.Val) || x.ID != y.ID ||
			math.Float64bits(x.Score) != math.Float64bits(y.Score) || !x.Ts.Equal(y.Ts) ||
			x.Limit != y.Limit || x.HalfLife != y.HalfLife || x.Want != y.Want ||
			math.Float64bits(x.Floor) != math.Float64bits(y.Floor) {
			return false
		}
	}
	return true
}

// noneOrSame maps a nil slice to its empty form so round-trip comparisons
// ignore the nil-vs-empty distinction the codecs deliberately collapse.
func noneOrSame[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return S{}
	}
	return s
}
