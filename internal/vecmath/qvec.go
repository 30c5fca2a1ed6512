package vecmath

import "math"

// Int8 fixed-point quantization for latent vectors. The serving path stores
// item vectors as QVec — a per-vector scale plus int8 components — which is
// 8× smaller than the float64 form, so a candidate batch's parameters fit in
// cache lines instead of thrashing them. Quantization is symmetric: the scale
// maps the largest-magnitude component to ±127, components are rounded, and
// the inner product is recovered as Σ qa·qb · scaleA·scaleB. For the unit-
// scale vectors online MF produces, the per-dot relative error is well under
// a percent — the eval tier pins the end-to-end recall gap at ≤ 2%.

// QMax is the largest quantized magnitude. The symmetric range [-127, 127]
// deliberately excludes -128 so negation never overflows.
const QMax = 127

// minNormal is the smallest positive normal float64.
const minNormal = 0x1p-1022

// QVec is a quantized vector: v[i] ≈ Scale * float64(Data[i]).
type QVec struct {
	Scale float64
	Data  []int8
}

// Quantize converts v to a fresh QVec.
func Quantize(v []float64) QVec {
	return QuantizeInto(QVec{}, v)
}

// QuantizeInto quantizes v reusing dst's backing array when it has capacity —
// the serving path quantizes the user vector once per request into pooled
// scratch. An all-zero input, or one whose largest magnitude is under about
// 2.8e-306, yields Scale 0 and zero data: dequantizing gives back the zero
// vector, and any dot with it is 0, matching the float behaviour of an
// untrained vector.
//
// hotpath: one user-vector quantization per scored batch, allocation-free warm
func QuantizeInto(dst QVec, v []float64) QVec {
	if cap(dst.Data) < len(v) {
		dst.Data = make([]int8, len(v)) // alloccheck: grow-once; callers pass pooled scratch
	} else {
		dst.Data = dst.Data[:len(v)]
	}
	maxAbs := 0.0
	for _, x := range v {
		if x != x { // numcheck: exact NaN self-comparison, the one float != that is never rounding-sensitive
			maxAbs = math.NaN()
			break
		}
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / QMax
	// Degenerate scales produce nothing representable: a zero vector has
	// scale 0, a NaN/Inf component poisons it, and a scale below the smallest
	// normal float (maxAbs under about 2.8e-306) has lost precision — its
	// reciprocal can even overflow, which would push every component to ±QMax.
	// All collapse to the zero QVec.
	if scale < minNormal || math.IsNaN(scale) || math.IsInf(scale, 0) {
		clear(dst.Data)
		dst.Scale = 0
		return dst
	}
	// Within rounding of the largest float, maxAbs/QMax can round up far
	// enough that ±QMax·scale overflows; step the scale down until the top
	// level dequantizes finite.
	for math.IsInf(scale*QMax, 0) {
		scale = math.Nextafter(scale, 0)
	}
	inv := 1 / scale
	for i, x := range v {
		q := math.Round(x * inv)
		if q > QMax {
			q = QMax
		} else if q < -QMax {
			q = -QMax
		}
		dst.Data[i] = int8(q)
	}
	dst.Scale = scale
	return dst
}

// Dequantize reconstructs the float vector into dst (reused when it has
// capacity) and returns it.
func Dequantize(q QVec, dst []float64) []float64 {
	if cap(dst) < len(q.Data) {
		dst = make([]float64, len(q.Data)) // alloccheck: grow-once; callers pass pooled scratch
	} else {
		dst = dst[:len(q.Data)]
	}
	for i, b := range q.Data {
		dst[i] = q.Scale * float64(b)
	}
	return dst
}

// DotQ8 returns the integer inner product of two quantized vectors. The
// float dot is recovered by multiplying with both scales. The loop walks both
// slices eight wide through the advancing-reslice idiom (the compiler proves
// all eight indexes in bounds from the loop condition, eliminating per-element
// bounds checks) with four independent int32 accumulator chains: the widened
// int32 products cannot overflow (127² · dims stays far below 2³¹ for any
// realistic factor count), and integer addition is exact, so the result is
// deterministic regardless of blocking.
//
// hotpath: one DotQ8 per candidate on the quantized serving path; must stay allocation-free
func DotQ8(a, b []int8) int32 {
	if len(a) != len(b) {
		panic("vecmath: quantized dimension mismatch")
	}
	var s0, s1, s2, s3 int32
	for len(a) >= 8 && len(b) >= 8 {
		s0 += int32(a[0])*int32(b[0]) + int32(a[4])*int32(b[4])
		s1 += int32(a[1])*int32(b[1]) + int32(a[5])*int32(b[5])
		s2 += int32(a[2])*int32(b[2]) + int32(a[6])*int32(b[6])
		s3 += int32(a[3])*int32(b[3]) + int32(a[7])*int32(b[7])
		a = a[8:]
		b = b[8:]
	}
	for i := 0; i < len(a); i++ {
		s0 += int32(a[i]) * int32(b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// DotQ8Batch scores many quantized vectors against one query in a single
// pass, writing the integer dots into dst (parallel to bs; reused when it has
// capacity). A nil entry in bs yields 0 — the caller's marker for candidates
// that fall back to the float path.
//
// hotpath: the quantized batch kernel scores every candidate per request
func DotQ8Batch(a []int8, bs [][]int8, dst []int32) []int32 {
	if cap(dst) < len(bs) {
		dst = make([]int32, len(bs)) // alloccheck: grow-once; callers pass pooled scratch
	} else {
		dst = dst[:len(bs)]
	}
	for i, b := range bs {
		if b == nil {
			dst[i] = 0
			continue
		}
		dst[i] = DotQ8(a, b)
	}
	return dst
}

// CosineNormed is Cosine with both norms precomputed. Callers that score one
// query against many vectors (the ANN index's exact ranking) compute each
// norm once instead of once per pair; the index caches item norms at insert
// time for exactly this call.
func CosineNormed(a, b []float64, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}
