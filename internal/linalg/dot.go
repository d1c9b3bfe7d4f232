package linalg

// dotKernel is the shared inner-product kernel behind Vector.Dot and the
// hyperplane-slab scans in package bounds: a 4-wide unrolled loop feeding a
// SINGLE accumulator. Unrolling with one accumulator keeps the floating-point
// addition sequence identical to the naive loop — term i is always added
// after term i-1 — so results are bit-for-bit the same as before, while the
// unrolled body amortizes loop overhead and lets the compiler eliminate three
// of every four bound checks.
//
// Callers are responsible for length checking; x and y must be the same
// length.
func dotKernel(x, y []float64) float64 {
	var s float64
	i := 0
	y = y[:len(x)] // hoist the bound proof for the unrolled body
	for ; i+4 <= len(x); i += 4 {
		s += x[i] * y[i]
		s += x[i+1] * y[i+1]
		s += x[i+2] * y[i+2]
		s += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// DotUnrolled computes the inner product of two equal-length slices with the
// unrolled single-accumulator kernel. It is exported for the packed
// structure-of-arrays scans (bounds.Set) that hold their planes as raw
// []float64 rows rather than Vectors. It panics on length mismatch, like
// Vector.Dot.
func DotUnrolled(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(dotMismatch(len(x), len(y)))
	}
	return dotKernel(x, y)
}

// DotSupport computes the inner product of x and y over the index set sup,
// which must list (in ascending order) every index at which x is nonzero:
// Σ_{i∈sup} x[i]·y[i]. It feeds the same single accumulator as dotKernel,
// starting from +0 and adding terms in ascending index order, so for every
// finite y it is bit-identical to DotUnrolled(x, y):
//
//   - The terms dotKernel adds and DotSupport skips are x[i]·y[i] with
//     x[i] = ±0; since y[i] is finite each is an exact ±0 (never NaN).
//   - The accumulator is never −0: it starts at +0, and in round-to-nearest
//     a sum is −0 only when both addends are −0. A product that underflows
//     to −0 (1e-300 · −1e-300) has a nonzero x[i], so it is in sup and both
//     kernels add it.
//   - Adding ±0 to an accumulator that is not −0 returns it unchanged, bit
//     for bit, so the skipped terms leave every partial sum as it was.
//
// The bounds package guarantees finite y by rejecting non-finite planes at
// every entry point (NewSet, Add, UnmarshalJSON). A NaN in x is nonzero, so
// it stays in sup and propagates exactly as in the dense kernel. It panics
// on an index of sup outside either slice; it is small enough to inline
// into the plane scans, where the call would otherwise cost as much as the
// one or two products of a typical successor belief.
func DotSupport(x, y []float64, sup []int) float64 {
	var s float64
	for _, i := range sup {
		s += x[i] * y[i]
	}
	return s
}
