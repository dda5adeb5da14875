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
	// negAConst is -A, the numerator of Elligator2's first candidate u.
	negAConst fe
	// sqrtNegAPlus2Const is √-(A+2), the scaling factor of the
	// birational map from Montgomery u,v to Edwards x.
	sqrtNegAPlus2Const fe
	// sqrtTwoOverIConst and sqrtTwoOverNegIConst are √(2/√-1) and
	// √(2/-√-1): what turns a failed root of g(u₁) into the root of
	// g(u₂) = 2r²·g(u₁) (2 and ±√-1 are both non-squares, so the
	// quotients are squares).
	sqrtTwoOverIConst, sqrtTwoOverNegIConst fe

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
	feNeg(&negAConst, &montAConst)

	// √-(A+2): -(486664) is a residue mod p.
	negAPlus2 := fe{l0: 486664}
	feNeg(&negAPlus2, &negAPlus2)
	if !feSqrtRatio(&sqrtNegAPlus2Const, &negAPlus2, &feOne) {
		panic("ec25519: -(A+2) unexpectedly not a square")
	}

	var negI fe
	feNeg(&negI, &sqrtM1Const)
	if !feSqrtRatio(&sqrtTwoOverIConst, &two, &sqrtM1Const) ||
		!feSqrtRatio(&sqrtTwoOverNegIConst, &two, &negI) {
		panic("ec25519: 2/±sqrt(-1) unexpectedly not a square")
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
// Cost: one field exponentiation (the shared square-root candidate of
// both Elligator branches, 251 squarings and 11 multiplications), no
// inversion, and nothing allocated.
func MapToPoint(uniform []byte) Point {
	if len(uniform) != HashLen {
		panic(fmt.Sprintf("ec25519: MapToPoint needs %d bytes, got %d", HashLen, len(uniform)))
	}
	r := feFromUniform(uniform)
	ed := elligator2(&r)
	var ed8 compPoint
	ed8.mulByCofactor(&ed)
	var out Point
	out.fromComp(&ed8)
	return out
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
//
// u stays a fraction N/D throughout, so nothing is inverted, and one
// square-root candidate serves both branches: u₁ = -A/(1 + 2r²) has
// g(u₁) = N(N² + A·N·D + D²)/D³, and when that is no square the map
// takes u₂ = -A - u₁ = 2r²·u₁, whose g(u₂) = 2r²·g(u₁) has the root
// r·cand·√(2/±√-1) (feSqrtRatioCandidate).
func elligator2(r *fe) projPoint {
	var rr2, n, d fe
	feSquare(&rr2, r)
	feAdd(&rr2, &rr2, &rr2)
	n = negAConst
	feAdd(&d, &rr2, &feOne)

	var nn, dd, nd, num, den fe
	feSquare(&nn, &n)
	feSquare(&dd, &d)
	feMul(&nd, &n, &d)
	feMul(&num, &montAConst, &nd)
	feAdd(&num, &num, &nn)
	feAdd(&num, &num, &dd)
	feMul(&num, &num, &n) // N(N² + A·N·D + D²)
	feMul(&den, &dd, &d)  // D³

	var v, check, negNum, iNum, negINum fe
	feSqrtRatioCandidate(&v, &check, &num, &den)
	feNeg(&negNum, &num)
	feMul(&iNum, &num, &sqrtM1Const)
	feNeg(&negINum, &iNum)
	switch {
	case feEqual(&check, &num):
		// u = u₁ and v is a root of g(u₁) (also when g(u₁) = 0).
	case feEqual(&check, &negNum):
		feMul(&v, &v, &sqrtM1Const)
	case feEqual(&check, &iNum):
		feMul(&n, &n, &rr2) // u = u₂
		feMul(&v, &v, r)
		feMul(&v, &v, &sqrtTwoOverIConst)
	case feEqual(&check, &negINum):
		feMul(&n, &n, &rr2)
		feMul(&v, &v, r)
		feMul(&v, &v, &sqrtTwoOverNegIConst)
	default:
		return identity.projPoint // 1 + 2r² = 0
	}
	// The non-negative root — the deterministic sign choice.
	feAbs(&v, &v)

	// Exceptional points of the birational map.
	var nPlusD, nMinusD fe
	feAdd(&nPlusD, &n, &d)
	if feIsZero(&v) || feIsZero(&nPlusD) {
		return identity.projPoint
	}

	// x = √-(A+2)·N/(D·v) and y = (N-D)/(N+D) over Z = D·v·(N+D).
	var ed projPoint
	var dv fe
	feSub(&nMinusD, &n, &d)
	feMul(&dv, &d, &v)
	feMul(&ed.x, &sqrtNegAPlus2Const, &n)
	feMul(&ed.x, &ed.x, &nPlusD)
	feMul(&ed.y, &nMinusD, &dv)
	feMul(&ed.z, &dv, &nPlusD)
	return ed
}
