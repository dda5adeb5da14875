package ec25519

import (
	"encoding/binary"
	"math/bits"
)

// Field arithmetic over GF(p), p = 2^255 - 19.
//
// Elements are held in radix-2^51: five unsigned limbs l0..l4 with
// value l0 + l1·2^51 + l2·2^102 + l3·2^153 + l4·2^204.  A "reduced"
// element has every limb below 2^52 (loose bound); carryPropagate
// restores that invariant after additions, and the multiplication
// routine re-establishes it itself.  Full canonical reduction to
// [0, p-1] happens only in toBytes.

// fe is one field element.  The zero value is the field's zero.
type fe struct {
	l0, l1, l2, l3, l4 uint64
}

// mask51 extracts one radix-2^51 limb.
const mask51 = (1 << 51) - 1

var (
	feZero = fe{}
	feOne  = fe{l0: 1}
)

// uint128 is a 128-bit accumulator for limb products.
type uint128 struct {
	lo, hi uint64
}

// mul64 returns a*b as a 128-bit value.
func mul64(a, b uint64) uint128 {
	hi, lo := bits.Mul64(a, b)
	return uint128{lo, hi}
}

// addMul64 returns v + a*b.
func addMul64(v uint128, a, b uint64) uint128 {
	hi, lo := bits.Mul64(a, b)
	lo, c := bits.Add64(lo, v.lo, 0)
	hi, _ = bits.Add64(hi, v.hi, c)
	return uint128{lo, hi}
}

// shiftRightBy51 returns a >> 51 (a is at most 115 bits).
func shiftRightBy51(a uint128) uint64 {
	return a.hi<<13 | a.lo>>51
}

// carryPropagate brings all limbs below 2^51 + 2^13·19 in one pass.
// Inputs may use the full 64 bits of every limb.
func (v *fe) carryPropagate() {
	c0 := v.l0 >> 51
	c1 := v.l1 >> 51
	c2 := v.l2 >> 51
	c3 := v.l3 >> 51
	c4 := v.l4 >> 51
	// 2^255 ≡ 19 (mod p), so the top carry folds into limb 0 times 19.
	v.l0 = v.l0&mask51 + c4*19
	v.l1 = v.l1&mask51 + c0
	v.l2 = v.l2&mask51 + c1
	v.l3 = v.l3&mask51 + c2
	v.l4 = v.l4&mask51 + c3
}

// feAdd sets v = a + b.
func feAdd(v, a, b *fe) {
	v.l0 = a.l0 + b.l0
	v.l1 = a.l1 + b.l1
	v.l2 = a.l2 + b.l2
	v.l3 = a.l3 + b.l3
	v.l4 = a.l4 + b.l4
	v.carryPropagate()
}

// feSub sets v = a - b, computed as a + 2p - b so no limb underflows.
// 2p = 2^256 - 38 splits into radix-2^51 limbs (2^52-38, 2^52-2, ...),
// each large enough to cover any reduced limb of b.
func feSub(v, a, b *fe) {
	v.l0 = a.l0 + 0xFFFFFFFFFFFDA - b.l0
	v.l1 = a.l1 + 0xFFFFFFFFFFFFE - b.l1
	v.l2 = a.l2 + 0xFFFFFFFFFFFFE - b.l2
	v.l3 = a.l3 + 0xFFFFFFFFFFFFE - b.l3
	v.l4 = a.l4 + 0xFFFFFFFFFFFFE - b.l4
	v.carryPropagate()
}

// feNeg sets v = -a.
func feNeg(v, a *fe) {
	feSub(v, &feZero, a)
}

// feMul sets v = a * b.  Schoolbook 5x5 limb product with the high
// half folded down through 2^255 ≡ 19.
func feMul(v, a, b *fe) {
	a0, a1, a2, a3, a4 := a.l0, a.l1, a.l2, a.l3, a.l4
	b0, b1, b2, b3, b4 := b.l0, b.l1, b.l2, b.l3, b.l4

	a1_19 := a1 * 19
	a2_19 := a2 * 19
	a3_19 := a3 * 19
	a4_19 := a4 * 19

	// r_k collects every a_i*b_j with i+j ≡ k (mod 5); products that
	// wrapped past 2^255 carry the factor 19.
	r0 := mul64(a0, b0)
	r0 = addMul64(r0, a1_19, b4)
	r0 = addMul64(r0, a2_19, b3)
	r0 = addMul64(r0, a3_19, b2)
	r0 = addMul64(r0, a4_19, b1)

	r1 := mul64(a0, b1)
	r1 = addMul64(r1, a1, b0)
	r1 = addMul64(r1, a2_19, b4)
	r1 = addMul64(r1, a3_19, b3)
	r1 = addMul64(r1, a4_19, b2)

	r2 := mul64(a0, b2)
	r2 = addMul64(r2, a1, b1)
	r2 = addMul64(r2, a2, b0)
	r2 = addMul64(r2, a3_19, b4)
	r2 = addMul64(r2, a4_19, b3)

	r3 := mul64(a0, b3)
	r3 = addMul64(r3, a1, b2)
	r3 = addMul64(r3, a2, b1)
	r3 = addMul64(r3, a3, b0)
	r3 = addMul64(r3, a4_19, b4)

	r4 := mul64(a0, b4)
	r4 = addMul64(r4, a1, b3)
	r4 = addMul64(r4, a2, b2)
	r4 = addMul64(r4, a3, b1)
	r4 = addMul64(r4, a4, b0)

	c0 := shiftRightBy51(r0)
	c1 := shiftRightBy51(r1)
	c2 := shiftRightBy51(r2)
	c3 := shiftRightBy51(r3)
	c4 := shiftRightBy51(r4)

	v.l0 = r0.lo&mask51 + c4*19
	v.l1 = r1.lo&mask51 + c0
	v.l2 = r2.lo&mask51 + c1
	v.l3 = r3.lo&mask51 + c2
	v.l4 = r4.lo&mask51 + c3
	v.carryPropagate()
}

// feSquare sets v = a².  Exploits product symmetry: cross terms appear
// twice, so they are doubled instead of recomputed.
func feSquare(v, a *fe) {
	a0, a1, a2, a3, a4 := a.l0, a.l1, a.l2, a.l3, a.l4

	d0 := a0 * 2
	d1 := a1 * 2
	a3_19 := a3 * 19
	a4_19 := a4 * 19

	r0 := mul64(a0, a0)
	r0 = addMul64(r0, d1, a4_19)
	r0 = addMul64(r0, a2*2, a3_19)

	r1 := mul64(d0, a1)
	r1 = addMul64(r1, a2*2, a4_19)
	r1 = addMul64(r1, a3_19, a3)

	r2 := mul64(d0, a2)
	r2 = addMul64(r2, a1, a1)
	r2 = addMul64(r2, a3*2, a4_19)

	r3 := mul64(d0, a3)
	r3 = addMul64(r3, d1, a2)
	r3 = addMul64(r3, a4_19, a4)

	r4 := mul64(d0, a4)
	r4 = addMul64(r4, d1, a3)
	r4 = addMul64(r4, a2, a2)

	c0 := shiftRightBy51(r0)
	c1 := shiftRightBy51(r1)
	c2 := shiftRightBy51(r2)
	c3 := shiftRightBy51(r3)
	c4 := shiftRightBy51(r4)

	v.l0 = r0.lo&mask51 + c4*19
	v.l1 = r1.lo&mask51 + c0
	v.l2 = r2.lo&mask51 + c1
	v.l3 = r3.lo&mask51 + c2
	v.l4 = r4.lo&mask51 + c3
	v.carryPropagate()
}

// fePow sets v = a^e, with the exponent given as big-endian bytes.
// Plain MSB-first square-and-multiply: on the near-all-ones exponents
// this field needs (p-2, (p-5)/8) it costs ≈254 squarings plus ≈250
// multiplications against the chain's 254 and 11 — so nothing
// per-element calls it.  It remains for init's one-off √-1 constant
// and as the differential oracle the tests hold the chain against.
func fePow(v, a *fe, exp []byte) {
	base := *a // allow v == a aliasing
	out := feOne
	for _, by := range exp {
		for bit := 7; bit >= 0; bit-- {
			feSquare(&out, &out)
			if by>>uint(bit)&1 == 1 {
				feMul(&out, &out, &base)
			}
		}
	}
	*v = out
}

// feSquareN sets v = a^(2^n), n ≥ 1.
func feSquareN(v, a *fe, n int) {
	feSquare(v, a)
	for i := 1; i < n; i++ {
		feSquare(v, v)
	}
}

// fePowChain is the addition chain every exponentiation in the package
// shares: it returns t250 = z^(2^250-1) and z11 = z^11 in 249 squarings
// and 10 multiplications.  The two exponents the package needs are
// short tails on t250:
//
//	p-2     = 2^255-21 = (2^250-1)·2^5 + 11   feInvert
//	(p-5)/8 = 2^252-3  = (2^250-1)·2^2 + 1    fePow2523
//
// The operation sequence is fixed — it does not depend on z.
func fePowChain(z *fe) (t250, z11 fe) {
	var z2, z9, t5, t10, t20, t50, t100, t fe

	feSquare(&z2, z)        // 2
	feSquareN(&t, &z2, 2)   // 8
	feMul(&z9, &t, z)       // 9
	feMul(&z11, &z9, &z2)   // 11
	feSquare(&t, &z11)      // 22
	feMul(&t5, &t, &z9)     // 31 = 2^5 - 1
	feSquareN(&t, &t5, 5)   // 2^10 - 2^5
	feMul(&t10, &t, &t5)    // 2^10 - 1
	feSquareN(&t, &t10, 10) // 2^20 - 2^10
	feMul(&t20, &t, &t10)   // 2^20 - 1
	feSquareN(&t, &t20, 20) // 2^40 - 2^20
	feMul(&t, &t, &t20)     // 2^40 - 1
	feSquareN(&t, &t, 10)   // 2^50 - 2^10
	feMul(&t50, &t, &t10)   // 2^50 - 1
	feSquareN(&t, &t50, 50) // 2^100 - 2^50
	feMul(&t100, &t, &t50)  // 2^100 - 1
	feSquareN(&t, &t100, 100)
	feMul(&t, &t, &t100) // 2^200 - 1
	feSquareN(&t, &t, 50)
	feMul(&t250, &t, &t50) // 2^250 - 1
	return t250, z11
}

// feInvert sets v = a^{-1} = a^{p-2}; inversion of zero yields zero,
// which the exceptional-case handling in the Elligator map relies on.
// 254 squarings and 11 multiplications; v may alias a.
func feInvert(v, a *fe) {
	t, a11 := fePowChain(a)
	feSquareN(&t, &t, 5)
	feMul(v, &t, &a11)
}

// fePow2523 sets v = a^((p-5)/8), the exponent of the p ≡ 5 (mod 8)
// square-root shortcut: 251 squarings and 11 multiplications.  v may
// alias a.
func fePow2523(v, a *fe) {
	t, _ := fePowChain(a)
	feSquareN(&t, &t, 2)
	feMul(v, &t, a)
}

// feFromBytes loads a 32-byte little-endian encoding, ignoring the
// top bit of byte 31 (the encoding carries only 255 bits).
func feFromBytes(b []byte) fe {
	_ = b[31]
	return fe{
		l0: binary.LittleEndian.Uint64(b[0:8]) & mask51,
		l1: binary.LittleEndian.Uint64(b[6:14]) >> 3 & mask51,
		l2: binary.LittleEndian.Uint64(b[12:20]) >> 6 & mask51,
		l3: binary.LittleEndian.Uint64(b[19:27]) >> 1 & mask51,
		l4: binary.LittleEndian.Uint64(b[24:32]) >> 12 & mask51,
	}
}

// toBytes writes the canonical (fully reduced, little-endian) 32-byte
// encoding of v into out.
func (v *fe) toBytes(out *[32]byte) {
	r := *v
	r.carryPropagate()
	// Limbs are now below 2^52.  Compute q = floor(r / p) ∈ {0, 1, 2}
	// by trial-adding 19 and watching the carry ripple off the top.
	// Two rounds handle the residual excess from carryPropagate.
	for i := 0; i < 2; i++ {
		q := (r.l0 + 19) >> 51
		q = (r.l1 + q) >> 51
		q = (r.l2 + q) >> 51
		q = (r.l3 + q) >> 51
		q = (r.l4 + q) >> 51
		// Subtract q*p = q*2^255 - q*19: add 19q, then drop bit 255.
		r.l0 += 19 * q
		c0 := r.l0 >> 51
		r.l0 &= mask51
		r.l1 += c0
		c1 := r.l1 >> 51
		r.l1 &= mask51
		r.l2 += c1
		c2 := r.l2 >> 51
		r.l2 &= mask51
		r.l3 += c2
		c3 := r.l3 >> 51
		r.l3 &= mask51
		r.l4 += c3
		r.l4 &= mask51
	}
	binary.LittleEndian.PutUint64(out[0:8], r.l0|r.l1<<51)
	binary.LittleEndian.PutUint64(out[8:16], r.l1>>13|r.l2<<38)
	binary.LittleEndian.PutUint64(out[16:24], r.l2>>26|r.l3<<25)
	binary.LittleEndian.PutUint64(out[24:32], r.l3>>39|r.l4<<12)
}

// feEqual reports a == b in the field (canonical comparison).
func feEqual(a, b *fe) bool {
	var ab, bb [32]byte
	a.toBytes(&ab)
	b.toBytes(&bb)
	return ab == bb
}

// feIsZero reports a == 0.
func feIsZero(a *fe) bool {
	return feEqual(a, &feZero)
}

// feIsNegative reports whether the canonical encoding of a is odd —
// the "sign" convention of the compressed point format.
func feIsNegative(a *fe) bool {
	var ab [32]byte
	a.toBytes(&ab)
	return ab[0]&1 == 1
}

// feSelect sets v = a when mask is all ones and leaves v alone when
// mask is zero, without branching on mask.
func feSelect(v, a *fe, mask uint64) {
	v.l0 ^= mask & (v.l0 ^ a.l0)
	v.l1 ^= mask & (v.l1 ^ a.l1)
	v.l2 ^= mask & (v.l2 ^ a.l2)
	v.l3 ^= mask & (v.l3 ^ a.l3)
	v.l4 ^= mask & (v.l4 ^ a.l4)
}

// feAbs sets v to a if a is non-negative, else to -a.
func feAbs(v, a *fe) {
	if feIsNegative(a) {
		feNeg(v, a)
	} else {
		*v = *a
	}
}
