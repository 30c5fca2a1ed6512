package kvstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"vidrec/internal/topn"
)

// Binary encodings for the value types the pipeline stores. All encodings are
// little-endian and length-prefixed where needed, designed to be compact and
// allocation-predictable rather than self-describing: every namespace stores
// exactly one value type, so the reader always knows the format.

// EncodeFloats encodes a float64 slice as 8 bytes per element.
func EncodeFloats(v []float64) []byte {
	return AppendFloats(make([]byte, 0, 8*len(v)), v) // alloccheck: one record per write, sized by the caller's payload (bandit state: 6 floats)
}

// AppendFloats appends the EncodeFloats encoding of v to dst and returns the
// extended slice — the buffer-reuse form for writers that batch encodes into
// one scratch buffer.
func AppendFloats(dst []byte, v []float64) []byte {
	for _, f := range v {
		var sb [8]byte
		binary.LittleEndian.PutUint64(sb[:], math.Float64bits(f))
		dst = append(dst, sb[:]...)
	}
	return dst
}

// DecodeFloats decodes a value produced by EncodeFloats.
func DecodeFloats(b []byte) ([]float64, error) {
	return DecodeFloatsInto(nil, b)
}

// DecodeFloatsInto decodes like DecodeFloats but reuses dst's backing array
// when it has the capacity, allocating only when it must grow. The serving
// hot path decodes hundreds of candidate vectors per request into one
// scratch slice instead of hundreds of fresh allocations; the returned slice
// aliases dst, so callers must consume it before the next reuse.
//
// hotpath: the decode-into discipline only matters if it stays allocation-free
func DecodeFloatsInto(dst []float64, b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("kvstore: float slice encoding has %d bytes, not a multiple of 8", len(b))
	}
	n := len(b) / 8
	if cap(dst) < n {
		dst = make([]float64, n) // alloccheck: grow on first use; steady state reuses dst
	} else {
		dst = dst[:n]
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst, nil
}

// EncodeFloat encodes a single float64.
func EncodeFloat(f float64) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(f))
	return buf
}

// DecodeFloat decodes a value produced by EncodeFloat.
//
// hotpath: one bias decode per cold key; reached through the Store interface
func DecodeFloat(b []byte) (float64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("kvstore: float encoding has %d bytes, want 8", len(b))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// EncodeEntries encodes a scored list (similar-video tables, hot lists):
// a uvarint count, then per entry a uvarint-length-prefixed ID and an 8-byte
// score.
func EncodeEntries(entries []topn.Entry) []byte {
	size := binary.MaxVarintLen64
	for _, e := range entries {
		size += binary.MaxVarintLen64 + len(e.ID) + 8
	}
	buf := make([]byte, 0, size) // alloccheck: one record per write, sized by the caller's payload (attributions: one slate)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = AppendEntry(buf, e.ID, e.Score)
	}
	return buf
}

// AppendEntry appends one entry of the EncodeEntries format — the
// uvarint-length-prefixed id and the 8-byte score — to dst. The uvarint
// count that opens the list is the caller's to write first.
//
// hotpath: every stored list is written through here
func AppendEntry[ID ~string | ~[]byte](dst []byte, id ID, score float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	dst = append(dst, id...)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(score))
}

// UvarintSize is the number of bytes binary.AppendUvarint writes for v.
func UvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// EntrySize is the number of bytes AppendEntry writes for an id of idLen
// bytes. With UvarintSize of the count it lets a writer allocate its record
// once, exactly.
func EntrySize(idLen int) int { return UvarintSize(uint64(idLen)) + idLen + 8 }

// RawEntry is one entry of an EncodeEntries value as EntryCursor yields it:
// ID is a sub-slice of the encoded bytes, not a copy.
type RawEntry struct {
	ID    []byte
	Score float64
}

// EntryCursor walks an EncodeEntries value entry by entry without allocating
// — the parser under DecodeEntries, and what the write path reads stored
// lists with. A value is accepted only when Next reached the end of the list
// without an error; entries yielded before an error belong to a rejected
// value and must be discarded.
type EntryCursor struct {
	b    []byte
	off  int
	n, i uint64 // entries the header claims; entries yielded
}

// NewEntryCursor validates the list header of b and returns a cursor on its
// first entry.
//
// hotpath: the write path reads every stored list through the cursor
func NewEntryCursor(b []byte) (EntryCursor, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return EntryCursor{}, fmt.Errorf("kvstore: corrupt entry list header")
	}
	if n > uint64(len(b)) { // each entry needs at least 1 byte; cheap sanity bound
		return EntryCursor{}, fmt.Errorf("kvstore: entry list claims %d entries in %d bytes", n, len(b))
	}
	return EntryCursor{b: b, off: off, n: n}, nil
}

// Next returns the next entry; ok is false at the end of the list. A
// malformed entry returns an error and leaves the cursor where it was.
//
// hotpath: one call per stored entry on the write path
func (c *EntryCursor) Next() (e RawEntry, ok bool, err error) {
	if c.i == c.n {
		return RawEntry{}, false, nil
	}
	l, m := binary.Uvarint(c.b[c.off:])
	if m <= 0 {
		return RawEntry{}, false, fmt.Errorf("kvstore: corrupt entry %d length", c.i)
	}
	off := c.off + m
	// The length is compared before 8 is added to it: a length near 2^64
	// must not wrap into a small one.
	if rest := uint64(len(c.b) - off); l > rest || rest-l < 8 {
		return RawEntry{}, false, fmt.Errorf("kvstore: truncated entry %d", c.i)
	}
	end := off + int(l)
	e = RawEntry{ID: c.b[off:end:end], Score: math.Float64frombits(binary.LittleEndian.Uint64(c.b[end:]))}
	c.off = end + 8
	c.i++
	return e, true, nil
}

// DecodeEntries decodes a value produced by EncodeEntries.
func DecodeEntries(b []byte) ([]topn.Entry, error) {
	c, err := NewEntryCursor(b)
	if err != nil {
		return nil, err
	}
	// alloccheck: miss-path decode, sized by the encoded header
	entries := make([]topn.Entry, 0, c.n)
	for {
		e, ok, err := c.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return entries, nil
		}
		id := string(e.ID) // alloccheck: decoded IDs must not alias the store's buffer
		entries = append(entries, topn.Entry{ID: id, Score: e.Score})
	}
}

// EncodeStrings encodes a string slice (user histories as plain ID lists):
// uvarint count, then uvarint-length-prefixed strings.
func EncodeStrings(ss []string) []byte {
	size := binary.MaxVarintLen64
	for _, s := range ss {
		size += binary.MaxVarintLen64 + len(s)
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// DecodeStrings decodes a value produced by EncodeStrings.
func DecodeStrings(b []byte) ([]string, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return nil, fmt.Errorf("kvstore: corrupt string list header")
	}
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("kvstore: string list claims %d entries in %d bytes", n, len(b))
	}
	// alloccheck: miss-path decode, sized by the encoded header
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		l, m := binary.Uvarint(b[off:])
		if m <= 0 {
			return nil, fmt.Errorf("kvstore: corrupt string %d length", i)
		}
		off += m
		if uint64(len(b)-off) < l {
			return nil, fmt.Errorf("kvstore: truncated string %d", i)
		}
		out = append(out, string(b[off:off+int(l)])) // alloccheck: decoded strings must not alias the store's buffer
		off += int(l)
	}
	return out, nil
}

// EncodeInt64 encodes a signed 64-bit integer (timestamps, counters).
func EncodeInt64(v int64) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(v))
	return buf
}

// DecodeInt64 decodes a value produced by EncodeInt64.
func DecodeInt64(b []byte) (int64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("kvstore: int64 encoding has %d bytes, want 8", len(b))
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}
