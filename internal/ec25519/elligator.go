// Package ec25519 is a from-scratch implementation of the prime-order
// subgroup of the twisted Edwards curve birationally equivalent to
// Curve25519, together with an Elligator2 hash-to-curve map.  It
// provides exactly what a commutative-encryption backend needs — a
// DDH-hard group of prime order ℓ ≈ 2^252, a map from uniform bytes
// into the group, scalar multiplication, and a canonical fixed-width
// encoding — using only the standard library.
//
// The commutative encryption built on it is f_e(x) = e·H(x): scalar
// multiplications commute, so Definition 2 of the paper holds with
// KeyF = [1, ℓ-1] and DomF the subgroup, under the same DDH assumption
// as the safe-prime instantiation of Example 1 but at a fraction of
// the per-operation (C_e) cost.
package ec25519

import (
	"fmt"
	"math/big"
)

// Curve and exponent constants, computed once at package
// initialization from first principles (so the only magic numbers in
// the package are the curve parameters 121665/121666, the Montgomery
// coefficient A = 486662, and the subgroup order).
var (
	// dConst is the Edwards d = -121665/121666.
	dConst fe
	// d2Const is 2d, used by the hwcd-3 addition.
	d2Const fe
	// sqrtM1Const is √-1 = 2^((p-1)/4).
	sqrtM1Const fe
	// montAConst is the Montgomery coefficient A = 486662 of
	// v² = u³ + Au² + u.
	montAConst fe
	// sqrtNegAPlus2Const is √-(A+2), the scaling factor of the
	// birational map from Montgomery u,v to Edwards x.
	sqrtNegAPlus2Const fe

	// orderL is the subgroup order ℓ = 2^252 + 27742…493.
	orderL *big.Int
)

func init() {
	p := new(big.Int).Lsh(big.NewInt(1), 255)
	p.Sub(p, big.NewInt(19))

	// √-1 before anything that calls feSqrtRatio.  This is the one
	// non-test use of the generic fePow.
	quarter := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 2)
	two := fe{l0: 2}
	fePow(&sqrtM1Const, &two, quarter.Bytes())
	var chk fe
	feSquare(&chk, &sqrtM1Const)
	var minusOne fe
	feNeg(&minusOne, &feOne)
	if !feEqual(&chk, &minusOne) {
		panic("ec25519: sqrt(-1) constant failed self-check")
	}

	// d = -121665/121666.
	num := fe{l0: 121665}
	den := fe{l0: 121666}
	feNeg(&num, &num)
	feInvert(&den, &den)
	feMul(&dConst, &num, &den)
	feAdd(&d2Const, &dConst, &dConst)

	montAConst = fe{l0: 486662}

	// √-(A+2): -(486664) is a residue mod p.
	negAPlus2 := fe{l0: 486664}
	feNeg(&negAPlus2, &negAPlus2)
	if !feSqrtRatio(&sqrtNegAPlus2Const, &negAPlus2, &feOne) {
		panic("ec25519: -(A+2) unexpectedly not a square")
	}

	orderL, _ = new(big.Int).SetString(
		"7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
	if orderL == nil || orderL.BitLen() != 253 {
		panic("ec25519: bad subgroup order constant")
	}
}

// Order returns a copy of the prime order ℓ of the subgroup — the
// size of the commutative-encryption key space KeyF.
func Order() *big.Int {
	return new(big.Int).Set(orderL)
}

// HashLen is the number of uniform input bytes MapToPoint consumes.
// 512 bits folded mod p keep the reduction bias below 2^-257.
const HashLen = 64

// MapToPoint maps HashLen uniform bytes to a point of the prime-order
// subgroup: reduce mod p, Elligator2 onto the Montgomery curve, the
// birational map to Edwards form, then multiply by the cofactor 8.
// Output is statistically close to uniform over the subgroup.  It
// panics if uniform is not exactly HashLen bytes (caller bug).
//
// Cost: five field exponentiations (the Legendre symbol, the square
// root and three inversions), 23 µs in all, nothing allocated.
func MapToPoint(uniform []byte) Point {
	if len(uniform) != HashLen {
		panic(fmt.Sprintf("ec25519: MapToPoint needs %d bytes, got %d", HashLen, len(uniform)))
	}
	r := feFromUniform(uniform)
	ed := elligator2(&r)
	mulByCofactor(&ed, &ed)
	return ed
}

// feFromUniform reduces the 512-bit big-endian integer in uniform
// modulo p without leaving the field representation: the input is
// hi·2^256 + lo and 2^256 ≡ 38 (mod p).  The result is congruent to
// the integer mod p, not necessarily canonical.
func feFromUniform(uniform []byte) fe {
	hi, lo := feFromBE256(uniform[:32]), feFromBE256(uniform[32:])
	var r fe
	feMul(&r, &hi, &fe{l0: 38})
	feAdd(&r, &r, &lo)
	return r
}

// feFromBE256 loads a 256-bit big-endian integer modulo p: the low
// 255 bits as they stand, bit 255 folded in through 2^255 ≡ 19.
func feFromBE256(be []byte) fe {
	var le [32]byte
	for i := range le {
		le[i] = be[31-i]
	}
	v := feFromBytes(le[:]) // ignores bit 255
	v.l0 += 19 * uint64(le[31]>>7)
	return v
}

// elligator2 maps a field element onto the curve: the Elligator2 map
// to Montgomery (u, v), then the birational correspondence
// x = √-(A+2)·u/v, y = (u-1)/(u+1) to Edwards coordinates.  The
// handful of exceptional inputs (v = 0 or u = -1, whose images are
// pure torsion) collapse to the identity; they are hit with
// probability ~2^-253.
func elligator2(r *fe) Point {
	// d0 = -A / (1 + 2r²); inv(0) = 0 handles 1 + 2r² = 0.
	var rr2, den, d0, negA fe
	feSquare(&rr2, r)
	feAdd(&rr2, &rr2, &rr2)
	feAdd(&den, &rr2, &feOne)
	feInvert(&den, &den)
	feNeg(&negA, &montAConst)
	feMul(&d0, &negA, &den)

	// u = d0 if g(d0) is square, else -d0 - A (Elligator2 guarantees
	// exactly one branch yields a square).
	var gd, chi, u fe
	montRHS(&gd, &d0)
	feLegendre(&chi, &gd)
	if feEqual(&chi, &feOne) || feIsZero(&gd) {
		u = d0
	} else {
		feSub(&u, &negA, &d0)
	}

	var gu, v fe
	montRHS(&gu, &u)
	if !feSqrtRatio(&v, &gu, &feOne) {
		panic("ec25519: elligator2 branch selection failed")
	}
	// v is the non-negative root — the deterministic sign choice.

	// Exceptional points of the birational map.
	var uPlus1 fe
	feAdd(&uPlus1, &u, &feOne)
	if feIsZero(&v) || feIsZero(&uPlus1) {
		return identity
	}

	var x, y, inv fe
	feInvert(&inv, &v)
	feMul(&x, &sqrtNegAPlus2Const, &u)
	feMul(&x, &x, &inv)
	feInvert(&inv, &uPlus1)
	feSub(&y, &u, &feOne)
	feMul(&y, &y, &inv)

	pt := Point{x: x, y: y, z: feOne}
	feMul(&pt.t, &x, &y)
	return pt
}

// montRHS sets g = u³ + A·u² + u, the right-hand side of the
// Montgomery curve equation.
func montRHS(g, u *fe) {
	var u2, u3, au2 fe
	feSquare(&u2, u)
	feMul(&u3, &u2, u)
	feMul(&au2, &montAConst, &u2)
	feAdd(g, &u3, &au2)
	feAdd(g, g, u)
}
