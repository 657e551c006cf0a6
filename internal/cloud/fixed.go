package cloud

import (
	"math"
	"math/bits"
)

// MaxAbsQ bounds the Q-values a merge accepts (|q| < MaxAbsQ). It sizes
// the accumulator: a state's weight sum is an int, so |Σw·q| < 2^63 ·
// 2^40 = 2^103, and 19 words — 1216 bits, 1074 of them below the binary
// point — hold every reachable sum with its sign and 38 bits to spare.
// PPDW-reward Q-values are O(1), and fleetd clamps uploads to ±1e12.
const MaxAbsQ = 0x1p40

// accWords sizes the fixed-point accumulator: a two's-complement
// integer counting units of 2^-1074 (the smallest float64 subnormal),
// so every float64 below MaxAbsQ times any int64 weight is an exact
// integer in it (see MaxAbsQ for the range).
const accWords = 19

// fixed is one exact Σw·q accumulator (Neal's "small superaccumulator",
// arXiv:1505.05571, at a fixed width). Adds and removals are exact and
// commute, so the sum — and therefore the rounded merge value — does
// not depend on the order contributions arrive in.
type fixed [accWords]uint64

// add adds w·q to f exactly; a negative w removes a contribution added
// earlier. |q| must be below MaxAbsQ.
func (f *fixed) add(q float64, w int64) {
	b := math.Float64bits(q)
	exp := int(b>>52) & 0x7ff
	mant := b & (1<<52 - 1)
	if exp == 0 {
		if mant == 0 {
			return // ±0 adds nothing
		}
		exp = 1 // subnormal: same scale as the smallest normal, no hidden bit
	} else {
		mant |= 1 << 52
	}
	// |q| = mant · 2^(exp-1075), so in units of 2^-1074 the mantissa
	// sits exp-1 bits up.
	neg := b>>63 != 0
	uw := uint64(w)
	if w < 0 {
		uw, neg = -uw, !neg
	}
	hi, lo := bits.Mul64(mant, uw)
	shift := uint(exp - 1)
	i, s := shift/64, shift%64
	// Shifts by 64 yield 0 in Go, so s == 0 needs no special case.
	w0, w1, w2 := lo<<s, hi<<s|lo>>(64-s), hi>>(64-s)
	var c uint64
	if neg {
		f[i], c = bits.Sub64(f[i], w0, 0)
		f[i+1], c = bits.Sub64(f[i+1], w1, c)
		f[i+2], c = bits.Sub64(f[i+2], w2, c)
		for j := i + 3; c != 0 && j < accWords; j++ {
			f[j], c = bits.Sub64(f[j], 0, c)
		}
		return
	}
	f[i], c = bits.Add64(f[i], w0, 0)
	f[i+1], c = bits.Add64(f[i+1], w1, c)
	f[i+2], c = bits.Add64(f[i+2], w2, c)
	for j := i + 3; c != 0 && j < accWords; j++ {
		f[j], c = bits.Add64(f[j], 0, c)
	}
}

// quo returns the sum divided by w (w > 0), correctly rounded to the
// nearest float64 (ties to even) — the same value math/big.Rat.Float64
// gives for the exact quotient.
func (f *fixed) quo(w int64) float64 {
	mag := *f
	neg := mag[accWords-1]>>63 != 0
	if neg {
		var c uint64 = 1
		for i := range mag {
			mag[i], c = bits.Add64(^mag[i], 0, c)
		}
	}
	hi := accWords - 1
	for hi >= 0 && mag[hi] == 0 {
		hi--
	}
	if hi < 0 {
		return 0
	}
	lo := 0
	for mag[lo] == 0 {
		lo++
	}
	// Long division by the single-word divisor from the top word down.
	// Words below lo are zero, so the remainder alone carries them; two
	// extra zero words guarantee at least 64 quotient bits after the
	// leading one (the quotient's top word sits at hi or hi-1 because
	// w < 2^63). top/next are the first two quotient words from the
	// leading nonzero one; everything after them only decides sticky.
	d := uint64(w)
	var rem, top, next uint64
	topPos, found, sticky := 0, 0, false
	for i := hi; i >= lo-2; i-- {
		var word uint64
		if i >= lo {
			word = mag[i]
		}
		var q uint64
		q, rem = bits.Div64(rem, word, d)
		switch {
		case found == 0 && q != 0:
			top, topPos, found = q, i, 1
		case found == 1:
			next, found = q, 2
		case found == 2:
			sticky = sticky || q != 0
		}
	}
	lz := uint(bits.LeadingZeros64(top))
	m := top<<lz | next>>(64-lz)
	sticky = sticky || rem != 0 || next<<lz != 0
	// The quotient is (m + frac) · 2^e with frac ∈ [0,1), nonzero iff
	// sticky. Keep 53 bits, or fewer when the result is subnormal and
	// its last bit is pinned at 2^-1074.
	e := 64*topPos - 1074 - int(lz)
	shift := 11
	if lead := e + 63; lead < -1022 {
		shift = -1074 - e
	}
	var kept uint64
	switch {
	case shift > 64: // below half the smallest subnormal
	case shift == 64:
		if m > 1<<63 || m == 1<<63 && sticky {
			kept = 1
		}
	default:
		kept = m >> shift
		rest, half := m&(1<<shift-1), uint64(1)<<(shift-1)
		if rest > half || rest == half && (sticky || kept&1 == 1) {
			kept++
		}
	}
	r := math.Ldexp(float64(kept), e+shift)
	if neg {
		r = -r
	}
	return r
}
