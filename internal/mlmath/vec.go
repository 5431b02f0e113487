package mlmath

import "math"

// Dot returns the inner product of a and b. It panics if lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		//ml4db:allow nakedpanic "caller bug: mismatched vector lengths"
		panic("mlmath: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AddTo adds src into dst element-wise.
func AddTo(dst, src []float64) {
	if len(dst) != len(src) {
		//ml4db:allow nakedpanic "caller bug: mismatched vector lengths"
		panic("mlmath: AddTo length mismatch")
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// AXPY computes dst += a*x element-wise.
func AXPY(dst []float64, a float64, x []float64) {
	if len(dst) != len(x) {
		//ml4db:allow nakedpanic "caller bug: mismatched vector lengths"
		panic("mlmath: AXPY length mismatch")
	}
	for i := range dst {
		dst[i] += a * x[i]
	}
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Concat returns the concatenation of the given vectors.
func Concat(vs ...[]float64) []float64 {
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	out := make([]float64, 0, n)
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

// ArgMax returns the index of the largest element (first on ties).
// It panics on an empty slice.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		//ml4db:allow nakedpanic "caller bug: ArgMax of an empty slice has no answer"
		panic("mlmath: ArgMax of empty slice")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// ArgMin returns the index of the smallest element (first on ties).
func ArgMin(v []float64) int {
	if len(v) == 0 {
		//ml4db:allow nakedpanic "caller bug: ArgMin of an empty slice has no answer"
		panic("mlmath: ArgMin of empty slice")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] < v[best] {
			best = i
		}
	}
	return best
}

// Softmax writes the softmax of v into a new slice.
func Softmax(v []float64) []float64 {
	out := make([]float64, len(v))
	if len(v) == 0 {
		return out
	}
	m := v[ArgMax(v)]
	sum := 0.0
	for i, x := range v {
		out[i] = math.Exp(x - m)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Sigmoid returns 1/(1+e^-x).
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// Tanh is the hyperbolic tangent.
func Tanh(x float64) float64 { return math.Tanh(x) }

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
