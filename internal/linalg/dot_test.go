package linalg

import (
	"math"
	"testing"

	"bpomdp/internal/rng"
)

// naiveDot is the reference single-accumulator loop DotUnrolled must
// reproduce bit-for-bit: the unrolled kernel keeps one accumulator and adds
// products in index order, so the floating-point operation sequence is
// identical.
func naiveDot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func TestDotUnrolledBitIdentical(t *testing.T) {
	stream := rng.New(31)
	// Every length from 0 through 33 covers all tail residues of the 4-wide
	// unroll several times over.
	for n := 0; n <= 33; n++ {
		for trial := 0; trial < 8; trial++ {
			x := make([]float64, n)
			y := make([]float64, n)
			for i := range x {
				x[i] = stream.Float64()*2e3 - 1e3
				y[i] = stream.Float64()*2e3 - 1e3
			}
			want, got := naiveDot(x, y), DotUnrolled(x, y)
			if want != got {
				t.Fatalf("n=%d trial %d: DotUnrolled %v != naive %v", n, trial, got, want)
			}
			if v := Vector(x).Dot(Vector(y)); v != want {
				t.Fatalf("n=%d trial %d: Vector.Dot %v != naive %v", n, trial, v, want)
			}
		}
	}
}

func TestDotUnrolledMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	DotUnrolled([]float64{1, 2}, []float64{1})
}

// supportOf lists the indices of x's nonzero entries (NaN included) in
// ascending order: the sup argument of DotSupport.
func supportOf(x []float64) []int {
	var sup []int
	for i, v := range x {
		if v != 0 {
			sup = append(sup, i)
		}
	}
	return sup
}

// sparseProbe draws a vector of length n with exactly k nonzero entries, of
// either sign and magnitudes from 1e-300 to 1e3, and signed zeros elsewhere.
func sparseProbe(stream *rng.Stream, n, k int) []float64 {
	x := make([]float64, n)
	for i := range x {
		if stream.IntN(2) == 0 {
			x[i] = math.Copysign(0, -1)
		}
	}
	for _, i := range stream.Perm(n)[:k] {
		x[i] = signedMagnitude(stream)
	}
	return x
}

// signedMagnitude draws a finite value of random sign whose magnitude is
// tiny (near the subnormal range), ordinary, or large.
func signedMagnitude(stream *rng.Stream) float64 {
	var v float64
	switch stream.IntN(3) {
	case 0:
		v = 1e-300 * (1 + stream.Float64())
	case 1:
		v = stream.Float64()
	default:
		v = 1e3 * stream.Float64()
	}
	if stream.IntN(2) == 0 {
		v = -v
	}
	return v
}

// TestDotSupportBitIdentical pins the exactness argument in DotSupport's
// doc comment: over x's support, against every finite y, the support dot
// returns the dense kernel's bits — at every density from the all-zero
// vector to a full one, with negative planes, signed zeros in x, and
// products that underflow to −0.
func TestDotSupportBitIdentical(t *testing.T) {
	stream := rng.New(41)
	for n := 0; n <= 33; n++ {
		for k := 0; k <= n; k++ {
			for trial := 0; trial < 4; trial++ {
				x := sparseProbe(stream, n, k)
				y := make([]float64, n)
				for i := range y {
					y[i] = signedMagnitude(stream)
				}
				sup := supportOf(x)
				if len(sup) != k {
					t.Fatalf("n=%d k=%d: support has %d entries", n, k, len(sup))
				}
				want, got := math.Float64bits(DotUnrolled(x, y)), math.Float64bits(DotSupport(x, y, sup))
				if want != got {
					t.Fatalf("n=%d k=%d trial %d: DotSupport bits %#x != DotUnrolled %#x", n, k, trial, got, want)
				}
			}
		}
	}
}

// TestDotSupportUnderflowAndZeros covers the edge cases by hand: products
// that underflow to −0, alone or among skipped signed zeros, an all-zero x
// (both kernels give +0, never −0), and a NaN in x, which is in the
// support and propagates.
func TestDotSupportUnderflowAndZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		x, y []float64
	}{
		{"underflow to -0", []float64{1e-300, 0, negZero}, []float64{-1e-300, -5, 7}},
		{"underflow after zeros", []float64{0, negZero, 1e-300}, []float64{-3, 2, -1e-300}},
		{"two underflows", []float64{1e-300, 0, -1e-300}, []float64{-1e-300, -1, 1e-300}},
		{"all zero", []float64{0, negZero, 0, 0}, []float64{-1, -2, 3, -4}},
		{"negative plane", []float64{0.25, 0, 0.75, 0}, []float64{-4, -1e3, -2, -9}},
		{"NaN entry", []float64{0, math.NaN(), 0, 1}, []float64{-1, -2, -3, -4}},
	}
	for _, c := range cases {
		sup := supportOf(c.x)
		want, got := DotUnrolled(c.x, c.y), DotSupport(c.x, c.y, sup)
		if math.Float64bits(want) != math.Float64bits(got) && !(math.IsNaN(want) && math.IsNaN(got)) {
			t.Errorf("%s: DotSupport %v (%#x) != DotUnrolled %v (%#x)",
				c.name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
