package vec

import "fmt"

// This file holds the unrolled hot loops behind every K-means kernel:
// the dense squared distance, the dense dot/accumulate, and the two
// CSR primitives (gather dot, scatter add). They are written for the
// Go compiler's bounds-check elimination: each loop advances the
// slices themselves ("len(a) >= 4" guards followed by constant
// indices), the one shape the prover discharges completely — the
// strided "i += 4" form keeps its checks because the prover cannot
// establish the induction variable's sign across a stride. The only
// residual checks are the data-dependent column gathers
// (dense[cols[p]]), which no safe formulation can remove; see
// scripts/check_bce.sh for the enforcement.
//
// Bit-for-bit contract: every unrolled loop keeps a SINGLE accumulator
// updated in the same element order as the plain range loop it
// replaced. IEEE-754 addition is performed in an identical sequence,
// so every kernel (lloyd, dense-lloyd, sparse-lloyd, minibatch) sees
// exactly the arithmetic it saw before the unroll — the speedup comes
// from eliminated bounds checks and amortized loop overhead, never
// from a reassociated reduction. Every product is converted
// explicitly (float64(a * b)) before it is added, which forbids the
// compiler from fusing the pair into one multiply-add on the
// architectures that have one (arm64, ppc64, s390x): a fused and an
// unfused sum round differently, and the sparse and dense kernels
// must round alike on every architecture. scripts/check_fma.sh
// enforces it.

// Dot returns the inner product of a and b. It panics if the lengths
// differ, since that is always a programming error.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for len(a) >= 4 && len(b) >= 4 {
		s += float64(a[0] * b[0])
		s += float64(a[1] * b[1])
		s += float64(a[2] * b[2])
		s += float64(a[3] * b[3])
		a = a[4:]
		b = b[4:]
	}
	for len(a) > 0 && len(b) > 0 {
		s += float64(a[0] * b[0])
		a = a[1:]
		b = b[1:]
	}
	return s
}

// SquaredEuclidean returns ||a-b||².
func SquaredEuclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: SquaredEuclidean length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for len(a) >= 4 && len(b) >= 4 {
		d0 := a[0] - b[0]
		s += float64(d0 * d0)
		d1 := a[1] - b[1]
		s += float64(d1 * d1)
		d2 := a[2] - b[2]
		s += float64(d2 * d2)
		d3 := a[3] - b[3]
		s += float64(d3 * d3)
		a = a[4:]
		b = b[4:]
	}
	for len(a) > 0 && len(b) > 0 {
		d := a[0] - b[0]
		s += float64(d * d)
		a = a[1:]
		b = b[1:]
	}
	return s
}

// AddTo accumulates src into dst in place.
func AddTo(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vec: AddTo length mismatch %d vs %d", len(dst), len(src)))
	}
	for len(dst) >= 4 && len(src) >= 4 {
		dst[0] += src[0]
		dst[1] += src[1]
		dst[2] += src[2]
		dst[3] += src[3]
		dst = dst[4:]
		src = src[4:]
	}
	for len(dst) > 0 && len(src) > 0 {
		dst[0] += src[0]
		dst = dst[1:]
		src = src[1:]
	}
}

// SparseDot returns Σₚ vals[p]·dense[cols[p]] — the CSR gather dot
// behind the cached-norm distance identity. vals and cols must be the
// parallel value/column arrays of one CSR row; in-range column
// indices are the caller's contract, as in the plain loop this
// replaces. The dense[cols[p]] gathers keep their bounds checks: the
// indices are data, not induction variables.
func SparseDot(vals []float64, cols []int32, dense []float64) float64 {
	if len(vals) != len(cols) {
		panic(fmt.Sprintf("vec: SparseDot nnz mismatch %d vs %d", len(vals), len(cols)))
	}
	s := 0.0
	for len(vals) >= 4 && len(cols) >= 4 {
		s += float64(vals[0] * dense[cols[0]])
		s += float64(vals[1] * dense[cols[1]])
		s += float64(vals[2] * dense[cols[2]])
		s += float64(vals[3] * dense[cols[3]])
		vals = vals[4:]
		cols = cols[4:]
	}
	for len(vals) > 0 && len(cols) > 0 {
		s += float64(vals[0] * dense[cols[0]])
		vals = vals[1:]
		cols = cols[1:]
	}
	return s
}

// ScatterAdd accumulates one CSR row into a dense accumulator:
// dst[cols[p]] += vals[p], in index order p — the centroid-sum
// reduction step. Column indices within a CSR row are unique, so the
// unrolled stores never alias within one body and the accumulation
// order per dst cell is unchanged.
func ScatterAdd(dst []float64, vals []float64, cols []int32) {
	if len(vals) != len(cols) {
		panic(fmt.Sprintf("vec: ScatterAdd nnz mismatch %d vs %d", len(vals), len(cols)))
	}
	for len(vals) >= 4 && len(cols) >= 4 {
		dst[cols[0]] += vals[0]
		dst[cols[1]] += vals[1]
		dst[cols[2]] += vals[2]
		dst[cols[3]] += vals[3]
		vals = vals[4:]
		cols = cols[4:]
	}
	for len(vals) > 0 && len(cols) > 0 {
		dst[cols[0]] += vals[0]
		vals = vals[1:]
		cols = cols[1:]
	}
}
