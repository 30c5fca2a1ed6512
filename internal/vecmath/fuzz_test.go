package vecmath

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// floatBytes encodes v as 8 little-endian bytes per component, the layout
// the store's float vectors use.
func floatBytes(v ...float64) []byte {
	b := make([]byte, 0, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// ulp returns the spacing between |x| and the next larger float.
func ulp(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

// FuzzQuantize drives arbitrary float vectors through quantize → dequantize:
// the scale must be finite and non-negative — all-zero, near-zero and
// non-finite inputs collapse to the zero QVec rather than a poisoned scale —
// and every finite component must come back finite and within half a
// quantization step of where it started, plus a few ulps of the component.
// The ulps are rounding: Quantize multiplies by 1/scale rather than dividing
// by scale, so a component half-way between two levels can round to the
// farther one, and the dequantizing product rounds again. The excess scales
// with the component, so no absolute slack covers it near the top of the
// float range (at |v| = 2.2e304 it is 6.1e287, under one ulp); a search over
// components placed on half-levels at every exponent found at most 2.7 ulps.
func FuzzQuantize(f *testing.F) {
	f.Add([]byte{})
	f.Add(floatBytes(0, 0))
	f.Add(floatBytes(0.5, -1, 0.25))
	f.Add(floatBytes(0, 0, 0, 0))
	f.Add(floatBytes(5e-324, -5e-324))      // subnormal maxAbs underflows the scale
	f.Add(floatBytes(math.Inf(1), 1, -1))   // non-finite component
	f.Add(floatBytes(math.NaN(), 0.5, 0.5)) // NaN component
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data)%8 != 0 {
			return
		}
		vec := make([]float64, len(data)/8)
		for i := range vec {
			vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		qv := Quantize(vec)
		if math.IsNaN(qv.Scale) || math.IsInf(qv.Scale, 0) || qv.Scale < 0 {
			t.Fatalf("Quantize emitted invalid scale %v for %v", qv.Scale, vec)
		}
		if len(qv.Data) != len(vec) {
			t.Fatalf("Quantize emitted %d components for %d", len(qv.Data), len(vec))
		}
		if qv.Scale == 0 && slices.ContainsFunc(qv.Data, func(q int8) bool { return q != 0 }) {
			t.Fatalf("Quantize emitted scale 0 with nonzero data %v for %v", qv.Data, vec)
		}
		back := Dequantize(qv, nil)
		for i, x := range back {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("dequantized component %d of %v is non-finite: %v", i, vec, x)
			}
			if qv.Scale > 0 && !math.IsNaN(vec[i]) && !math.IsInf(vec[i], 0) {
				if diff, bound := math.Abs(x-vec[i]), qv.Scale/2+4*ulp(vec[i]); diff > bound {
					t.Fatalf("component %d: %v -> %v, error %v exceeds scale/2 + 4 ulps %v", i, vec[i], x, diff, bound)
				}
			}
		}
	})
}
