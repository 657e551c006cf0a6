package cloud

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ratSum is the math/big reference for a fixed accumulator: the exact
// Σw·q and Σw as arbitrary-precision rationals.
type ratSum struct {
	sum    big.Rat
	weight int64
}

func (r *ratSum) add(q float64, w int64) {
	var t big.Rat
	t.SetFloat64(q)
	t.Mul(&t, new(big.Rat).SetInt64(w))
	r.sum.Add(&r.sum, &t)
	r.weight += w
}

// want is the correctly rounded Σw·q / Σw.
func (r *ratSum) want() float64 {
	q := new(big.Rat).Quo(&r.sum, new(big.Rat).SetInt64(r.weight))
	f, _ := q.Float64()
	return f
}

// hostileFloat draws from the values that stress the accumulator:
// subnormals, the ±1e12 sanitize clamp, ±0, values up to the MaxAbsQ
// bound, tiny normals, and ordinary O(1) Q-values.
func hostileFloat(rng *rand.Rand) float64 {
	switch rng.Intn(9) {
	case 0:
		return math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal
	case 1:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(4))
	case 2:
		return 1e12
	case 3:
		return -1e12
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return math.Nextafter(MaxAbsQ, 0) * (rng.Float64()*2 - 1)
	case 6:
		return math.Ldexp(rng.Float64(), -1000-rng.Intn(40))
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
}

func hostileWeight(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return 1
	case 1:
		return 1 << 18
	default:
		return 1 + rng.Int63n(1<<18)
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestFixedMatchesRat pins fixed.add/quo against math/big over random
// add/remove sequences: every rounded quotient must equal
// Rat.Float64() bit for bit, and removing every term must leave the
// accumulator exactly zero.
func TestFixedMatchesRat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		var f fixed
		var ref ratSum
		type term struct {
			q float64
			w int64
		}
		var live []term
		for op := 0; op < 50; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				f.add(live[i].q, -live[i].w)
				ref.add(live[i].q, -live[i].w)
				live = append(live[:i], live[i+1:]...)
			} else {
				tm := term{hostileFloat(rng), hostileWeight(rng)}
				f.add(tm.q, tm.w)
				ref.add(tm.q, tm.w)
				live = append(live, tm)
			}
			if ref.weight == 0 {
				continue
			}
			if got, want := f.quo(ref.weight), ref.want(); !sameFloat(got, want) {
				t.Fatalf("trial %d op %d: quo = %v (%#x), big.Rat = %v (%#x)",
					trial, op, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for _, tm := range live {
			f.add(tm.q, -tm.w)
		}
		if f != (fixed{}) {
			t.Fatalf("trial %d: accumulator not zero after removing every term", trial)
		}
	}
}

// TestFixedRoundingEdges covers the rounding corners directly: exact
// halves (ties to even), results below half the smallest subnormal,
// the subnormal/normal boundary, negative sums, and the largest sums
// the accumulator's width admits (|q| just below MaxAbsQ at a total
// weight of 2^63 - 1).
func TestFixedRoundingEdges(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	top := math.Nextafter(MaxAbsQ, 0) // the largest value a merge accepts
	cases := []struct {
		name  string
		terms []float64
		ws    []int64
	}{
		{"half of min subnormal ties to zero", []float64{tiny, 0}, []int64{1, 1}},
		{"three quarters of min subnormal", []float64{tiny, tiny, 0, 0}, []int64{1, 2, 0, 1}},
		{"negative tiny", []float64{-tiny, 0}, []int64{1, 1 << 18}},
		{"ones and next-after", []float64{1, math.Nextafter(1, 2)}, []int64{1, 1}},
		{"tie to even above 1", []float64{1 + 0x1p-52, 1 + 0x2p-52}, []int64{1, 1}},
		{"largest subnormal pair", []float64{0x1p-1022 - tiny, 0x1p-1022}, []int64{1, 1}},
		{"max magnitude", []float64{top, top}, []int64{math.MaxInt64 / 2, math.MaxInt64 / 2}},
		{"max negative magnitude", []float64{-top, -top}, []int64{math.MaxInt64 / 2, math.MaxInt64 / 2}},
		{"max weight against tiny", []float64{-top, tiny}, []int64{1, math.MaxInt64 - 1}},
		{"cancellation", []float64{1e12, -1e12, 1e-300}, []int64{5, 5, 1}},
	}
	for _, c := range cases {
		var f fixed
		var ref ratSum
		for i, q := range c.terms {
			w := c.ws[i]
			f.add(q, w)
			ref.add(q, w)
		}
		if ref.weight == 0 {
			continue
		}
		if got, want := f.quo(ref.weight), ref.want(); !sameFloat(got, want) {
			t.Errorf("%s: quo = %v (%#x), big.Rat = %v (%#x)", c.name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// FuzzAccumulator checks fuzzer-chosen add/remove/round sequences
// against the math/big reference. Each 10-byte chunk of the input is
// one operation: 8 bytes of float64 bits, then a weight byte and an
// op byte (add, or remove the most recent live term). Inputs are cut
// at maxFuzzOps operations: each step costs a big.Rat division, and
// longer sequences only slow the mutator down.
func FuzzAccumulator(f *testing.F) {
	seed := func(qs ...float64) []byte {
		var out []byte
		for i, q := range qs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(q))
			out = append(out, byte(i*37), byte(i%3))
		}
		return out
	}
	f.Add(seed(1, 2, 3))
	f.Add(seed(math.SmallestNonzeroFloat64, -0.0, 1e12, -1e12))
	f.Add(seed(math.Nextafter(MaxAbsQ, 0), -math.Nextafter(MaxAbsQ, 0), 0x1p-1022))
	const maxFuzzOps = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 10*maxFuzzOps {
			data = data[:10*maxFuzzOps]
		}
		var acc fixed
		var ref ratSum
		type term struct {
			q float64
			w int64
		}
		var live []term
		for len(data) >= 10 {
			q := math.Float64frombits(binary.LittleEndian.Uint64(data))
			w := int64(data[8])<<10 + 1 // 1 ... 2^18
			op := data[9]
			data = data[10:]
			if !(math.Abs(q) < MaxAbsQ) {
				continue // the merge refuses these before they reach a cell
			}
			if op%4 == 3 && len(live) > 0 {
				last := live[len(live)-1]
				live = live[:len(live)-1]
				acc.add(last.q, -last.w)
				ref.add(last.q, -last.w)
			} else {
				acc.add(q, w)
				ref.add(q, w)
				live = append(live, term{q, w})
			}
			if ref.weight == 0 {
				continue
			}
			if got, want := acc.quo(ref.weight), ref.want(); !sameFloat(got, want) {
				t.Fatalf("quo = %v (%#x), big.Rat = %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}
