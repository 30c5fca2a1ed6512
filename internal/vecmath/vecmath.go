// Package vecmath provides the small set of dense-vector operations used by
// the matrix-factorization model and the similar-video tables.
//
// All operations work on []float64 slices of equal length. Functions that
// combine two vectors panic on length mismatch: a mismatch always indicates a
// programming error (vectors of one model share a single dimensionality), and
// silently truncating would corrupt the model.
package vecmath

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b.
//
// The inner product x_u · y_i is the interaction term of the paper's
// preference prediction (Eq. 2) and the collaborative-filtering similarity
// between two item vectors (Eq. 9).
//
// The loop is unrolled four wide with independent accumulators: scoring runs
// one Dot per candidate per request, and the serial add chain of the naive
// loop is the bottleneck at the typical factor counts (8–64). Four partial
// sums break the dependency chain; summing them pairwise at the end keeps the
// operation deterministic (same input → same float result), which the golden
// serving test and sim digests rely on.
func Dot(a, b []float64) float64 {
	checkLen(a, b)
	var s0, s1, s2, s3 float64
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		bv := b[i : i+4 : i+4] // one bounds check for the group
		s0 += a[i] * bv[0]
		s1 += a[i+1] * bv[1]
		s2 += a[i+2] * bv[2]
		s3 += a[i+3] * bv[3]
	}
	for i := n; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Norm returns the Euclidean (L2) norm of a.
func Norm(a []float64) float64 {
	// Dot(a, a) is a sum of squares, always >= 0
	return math.Sqrt(Dot(a, a))
}

// Cosine returns the cosine similarity of a and b, or 0 when either vector is
// all-zero (a fresh, untrained vector carries no similarity signal).
func Cosine(a, b []float64) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// AXPY computes a += alpha*x in place and returns a.
func AXPY(alpha float64, x, a []float64) []float64 {
	checkLen(a, x)
	for i := range a {
		a[i] += alpha * x[i]
	}
	return a
}

// Scale multiplies a by alpha in place and returns a.
func Scale(alpha float64, a []float64) []float64 {
	for i := range a {
		a[i] *= alpha
	}
	return a
}

// Clone returns a copy of a. A nil input yields a nil output.
func Clone(a []float64) []float64 {
	if a == nil {
		return nil
	}
	c := make([]float64, len(a))
	copy(c, a)
	return c
}

// SGDStep applies one regularized stochastic-gradient step to dst:
//
//	dst += eta * (err*grad - lambda*dst)
//
// which is the update form of Algorithm 1 lines 11–14 (with grad being the
// paired vector for latent factors, or implicitly 1 for biases — see
// BiasStep). dst is modified in place and returned.
func SGDStep(eta, err, lambda float64, dst, grad []float64) []float64 {
	checkLen(dst, grad)
	for i := range dst {
		dst[i] += eta * (err*grad[i] - lambda*dst[i])
	}
	return dst
}

// BiasStep applies the scalar form of the regularized SGD step used for the
// user and item bias terms (Algorithm 1 lines 11–12):
//
//	b + eta*(err - lambda*b)
func BiasStep(eta, err, lambda, b float64) float64 {
	return b + eta*(err-lambda*b)
}

// IsFinite reports whether every element of a is finite (no NaN or ±Inf).
// The online model uses it to detect divergence under hostile learning rates.
func IsFinite(a []float64) bool {
	for _, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func checkLen(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: dimension mismatch %d != %d", len(a), len(b)))
	}
}
