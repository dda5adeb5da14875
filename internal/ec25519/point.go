package ec25519

import (
	"errors"
	"fmt"
)

// Edwards-curve point arithmetic for
//
//	-x² + y² = 1 + d·x²·y²,  d = -121665/121666 over GF(2^255-19)
//
// (the twisted Edwards form of Curve25519, as in Ed25519).  Points use
// extended homogeneous coordinates (X : Y : Z : T) with x = X/Z,
// y = Y/Z and X·Y = Z·T.  The addition law is the a = -1 "hwcd-3"
// formula set, which is complete on this curve (d is a non-square), so
// additions involving the identity or equal inputs need no special
// cases — the scalar ladder stays branch-free on point values.
//
// Three internal forms carry the arithmetic between Points.  Doubling
// never reads T and addition reads it only from its operands, so a run
// of doublings stays in the T-free projPoint; both formulas produce a
// compPoint, a pair of fractions that costs three multiplications to
// bring back to a projPoint and four to a full Point; and the second
// operand of an addition is a cachedPoint, the four products of its
// coordinates the formula actually uses.

// Common errors returned by point decoding.
var (
	// ErrNotOnCurve reports an encoding whose y has no matching x.
	ErrNotOnCurve = errors.New("ec25519: encoding is not a curve point")
	// ErrNonCanonical reports an encoding that is not the canonical
	// serialization of any point (y ≥ p, or x = -0).
	ErrNonCanonical = errors.New("ec25519: non-canonical point encoding")
)

// EncodedLen is the byte length of a compressed point encoding.
const EncodedLen = 32

// Point is a point on the curve.  It is a plain value: arithmetic
// returns new Points and never writes through its operands, so Points
// are safe for concurrent use and a whole Decode → ScalarMult → Encode
// pass stays on the caller's stack.  The zero value is invalid; obtain
// points from Decode, MapToPoint, Identity, or arithmetic on those.
type Point struct {
	projPoint
	t fe // X·Y/Z
}

// projPoint is a point in projective coordinates (X : Y : Z), x = X/Z
// and y = Y/Z: a Point without its T.
type projPoint struct {
	x, y, z fe
}

// compPoint is the "completed" result of a doubling or an addition:
// x = X/Z and y = Y/T, not yet multiplied out.
type compPoint struct {
	x, y, z, t fe
}

// cachedPoint is a Point prepared as the second operand of an
// addition: Y+X, Y-X, 2Z and 2d·T.
type cachedPoint struct {
	yPlusX, yMinusX, z2, t2d fe
}

var (
	// identity is the neutral element (0, 1).
	identity = Point{projPoint: projPoint{y: feOne, z: feOne}}
	// cachedIdentity is identity as an addition operand.
	cachedIdentity = cachedPoint{yPlusX: feOne, yMinusX: feOne, z2: fe{l0: 2}}
)

// Identity returns the neutral element of the curve group.
func Identity() Point {
	return identity
}

// double sets v = 2p (dbl-2008-hwcd): four squarings.
func (v *compPoint) double(p *projPoint) {
	var xx, yy, zz2, xy2 fe

	feSquare(&xx, &p.x)
	feSquare(&yy, &p.y)
	feSquare(&zz2, &p.z)
	feAdd(&zz2, &zz2, &zz2) // 2Z²
	feAdd(&xy2, &p.x, &p.y)
	feSquare(&xy2, &xy2) // (X+Y)²

	feAdd(&v.y, &yy, &xx)
	feSub(&v.z, &yy, &xx)
	feSub(&v.x, &xy2, &v.y) // 2XY
	feSub(&v.t, &zz2, &v.z)
}

// add sets v = p + q using the complete a=-1 extended-coordinate
// addition (add-2008-hwcd-3): four multiplications.
func (v *compPoint) add(p *Point, q *cachedPoint) {
	var yPlusX, yMinusX, a, b, c, d fe

	feAdd(&yPlusX, &p.y, &p.x)
	feSub(&yMinusX, &p.y, &p.x)
	feMul(&a, &yMinusX, &q.yMinusX) // (Y1-X1)(Y2-X2)
	feMul(&b, &yPlusX, &q.yPlusX)   // (Y1+X1)(Y2+X2)
	feMul(&c, &p.t, &q.t2d)         // 2d·T1·T2
	feMul(&d, &p.z, &q.z2)          // 2·Z1·Z2

	feSub(&v.x, &b, &a)
	feAdd(&v.y, &b, &a)
	feAdd(&v.z, &d, &c)
	feSub(&v.t, &d, &c)
}

// fromComp multiplies p out to projective coordinates: three
// multiplications.
func (v *projPoint) fromComp(p *compPoint) {
	feMul(&v.x, &p.x, &p.t)
	feMul(&v.y, &p.y, &p.z)
	feMul(&v.z, &p.z, &p.t)
}

// fromComp multiplies p out to extended coordinates: four
// multiplications.
func (v *Point) fromComp(p *compPoint) {
	v.projPoint.fromComp(p)
	feMul(&v.t, &p.x, &p.y)
}

// fromPoint prepares p as an addition operand: one multiplication.
func (v *cachedPoint) fromPoint(p *Point) {
	feAdd(&v.yPlusX, &p.y, &p.x)
	feSub(&v.yMinusX, &p.y, &p.x)
	feAdd(&v.z2, &p.z, &p.z)
	feMul(&v.t2d, &p.t, &d2Const)
}

// choose sets v = digit·P for digit in [-8, 8], given table[j] =
// (j+1)·P, without a branch or a memory index that depends on digit:
// every entry is read and masked in, then the result is negated under
// a mask (-(x, y) = (-x, y) swaps Y+X with Y-X and negates T).
func (v *cachedPoint) choose(table *[8]cachedPoint, digit int8) {
	neg := digit >> 7 // 0 or -1
	abs := uint64((digit ^ neg) - neg)
	*v = cachedIdentity
	for j := range table {
		hit := -(((abs ^ uint64(j+1)) - 1) >> 63) // all ones iff abs == j+1
		feSelect(&v.yPlusX, &table[j].yPlusX, hit)
		feSelect(&v.yMinusX, &table[j].yMinusX, hit)
		feSelect(&v.z2, &table[j].z2, hit)
		feSelect(&v.t2d, &table[j].t2d, hit)
	}
	negMask := uint64(int64(neg))
	swapped := v.yPlusX
	var negT fe
	feNeg(&negT, &v.t2d)
	feSelect(&v.yPlusX, &v.yMinusX, negMask)
	feSelect(&v.yMinusX, &swapped, negMask)
	feSelect(&v.t2d, &negT, negMask)
}

// isIdentity reports x = 0 and y = 1, projectively: X = 0 and Y = Z.
func (p *projPoint) isIdentity() bool {
	return feIsZero(&p.x) && feEqual(&p.y, &p.z)
}

// mulByCofactor sets v = 8p in completed form: three doublings, the
// first two T-free.
func (v *compPoint) mulByCofactor(p *projPoint) {
	var q projPoint
	v.double(p)
	q.fromComp(v)
	v.double(&q)
	q.fromComp(v)
	v.double(&q)
}

// Add returns p + q.
func (p Point) Add(q Point) Point {
	var qc cachedPoint
	var sum compPoint
	qc.fromPoint(&q)
	sum.add(&p, &qc)
	p.fromComp(&sum)
	return p
}

// Double returns 2p.
func (p Point) Double() Point {
	var dbl compPoint
	dbl.double(&p.projPoint)
	p.fromComp(&dbl)
	return p
}

// Equal reports whether p and q are the same point (comparing the
// underlying affine coordinates across projective representations).
func (p Point) Equal(q Point) bool {
	var a, b fe
	feMul(&a, &p.x, &q.z)
	feMul(&b, &q.x, &p.z)
	if !feEqual(&a, &b) {
		return false
	}
	feMul(&a, &p.y, &q.z)
	feMul(&b, &q.y, &p.z)
	return feEqual(&a, &b)
}

// IsIdentity reports whether p is the neutral element.
func (p Point) IsIdentity() bool {
	return p.isIdentity()
}

// IsSmallOrder reports whether p's order divides the cofactor 8, i.e.
// whether p lies in the small torsion subgroup (the identity and the
// seven low-order points).  Such encodings are rejected as protocol
// elements: they are not outputs of the hash-to-curve map and a
// torsion component would make f_e lose information.  Three T-free
// doublings and a projective comparison.
func (p Point) IsSmallOrder() bool {
	var p8 compPoint
	var q projPoint
	p8.mulByCofactor(&p.projPoint)
	q.fromComp(&p8)
	return q.isIdentity()
}

// ScalarMult returns e·p, with the scalar given as 32 big-endian
// bytes.  The scalar is recoded into 65 signed radix-16 digits in
// [-8, 8) (the last is the carry, so any 32-byte value works) over a
// table of P … 8P; each window is three T-free doublings, one full
// doubling and one addition through the complete formulas (a zero
// digit adds the identity), and the table entry is picked by choose.
// The sequence of field operations and of memory accesses is the same
// for every scalar.  One call is the EC backend's C_e operation: 7 + 65
// additions and 256 doublings, no field exponentiation and no
// allocation.
func (p Point) ScalarMult(e *[32]byte) Point {
	var table [8]cachedPoint
	var step compPoint
	multiple := p
	table[0].fromPoint(&multiple)
	for j := 1; j < len(table); j++ {
		step.add(&multiple, &table[0])
		multiple.fromComp(&step)
		table[j].fromPoint(&multiple)
	}

	var digits [65]int8
	for i, by := range e {
		digits[62-2*i] = int8(by & 15)
		digits[63-2*i] = int8(by >> 4)
	}
	var carry int8
	for i := range digits[:64] {
		digits[i] += carry
		carry = (digits[i] + 8) >> 4
		digits[i] -= carry << 4
	}
	digits[64] = carry

	var term cachedPoint
	var run projPoint
	v := identity
	term.choose(&table, digits[64])
	step.add(&v, &term)
	for i := 63; i >= 0; i-- {
		run.fromComp(&step)
		step.double(&run)
		run.fromComp(&step)
		step.double(&run)
		run.fromComp(&step)
		step.double(&run)
		run.fromComp(&step)
		step.double(&run)
		v.fromComp(&step)
		term.choose(&table, digits[i])
		step.add(&v, &term)
	}
	v.fromComp(&step)
	return v
}

// Encode appends the canonical 32-byte compressed encoding of p to
// dst: the little-endian bytes of y with the sign of x in the top bit.
// Normalising Z costs one field inversion (254 squarings and 11
// multiplications) and two multiplications; with a dst of capacity
// EncodedLen nothing is allocated.
func (p Point) Encode(dst []byte) []byte {
	var zInv, x, y fe
	feInvert(&zInv, &p.z)
	feMul(&x, &p.x, &zInv)
	feMul(&y, &p.y, &zInv)

	var out [32]byte
	y.toBytes(&out)
	if feIsNegative(&x) {
		out[31] |= 0x80
	}
	return append(dst, out[:]...)
}

// Decode parses a canonical compressed encoding.  It rejects
// encodings with y ≥ p, encodings whose y is on no curve point, and
// the non-canonical "negative zero" x.  It does NOT reject low-order
// points; callers that need subgroup membership combine Decode with
// IsSmallOrder.  Recovering x costs one field exponentiation (the
// square root: 251 squarings and 11 multiplications).
func Decode(b []byte) (Point, error) {
	if len(b) != EncodedLen {
		return Point{}, fmt.Errorf("ec25519: point encoding must be %d bytes, got %d", EncodedLen, len(b))
	}
	sign := b[31]&0x80 != 0
	y := feFromBytes(b)
	// Canonicality of y: re-serialize and compare against the input
	// with the sign bit cleared.
	var canon [32]byte
	y.toBytes(&canon)
	for i := range canon {
		expect := b[i]
		if i == 31 {
			expect &^= 0x80
		}
		if canon[i] != expect {
			return Point{}, ErrNonCanonical
		}
	}

	// Recover x from x² = (y² - 1) / (d·y² + 1).
	var yy, u, v, x fe
	feSquare(&yy, &y)
	feSub(&u, &yy, &feOne)
	feMul(&v, &yy, &dConst)
	feAdd(&v, &v, &feOne)
	if !feSqrtRatio(&x, &u, &v) {
		return Point{}, ErrNotOnCurve
	}
	if feIsZero(&x) {
		if sign {
			return Point{}, ErrNonCanonical // -0 is not canonical
		}
	} else if feIsNegative(&x) != sign {
		feNeg(&x, &x)
	}

	p := Point{projPoint: projPoint{x: x, y: y, z: feOne}}
	feMul(&p.t, &x, &y)
	return p, nil
}

// feSqrtRatio sets r to the non-negative square root of u/v and
// reports whether u/v was square.  Division by zero yields zero, so
// (0, v) gives (0, true) and (u≠0, 0) gives (0, false) — the
// conventions Decode relies on.  The candidate lands on u or on -u;
// the latter is fixed up by √-1.
func feSqrtRatio(r, u, v *fe) bool {
	var cand, check, negU fe
	feSqrtRatioCandidate(&cand, &check, u, v)
	feNeg(&negU, u)
	switch {
	case feEqual(&check, u):
		// cand is already a root.
	case feEqual(&check, &negU):
		feMul(&cand, &cand, &sqrtM1Const)
	default:
		*r = feZero
		return false
	}
	feAbs(r, &cand)
	return true
}

// feSqrtRatioCandidate is the one field exponentiation of a square
// root, by the p ≡ 5 (mod 8) shortcut: cand = u·v³·(u·v⁷)^((p-5)/8) and
// check = v·cand².  For u, v ≠ 0, check/u = (u·v⁷)^((p-1)/4) is a
// fourth root of unity: on ±1, u/v is square with root cand (times √-1
// for -1); on ±√-1 it is not, and cand² = ±√-1·u/v — which the
// Elligator map turns into the root of its other branch.  With u or v
// zero, cand and check are zero.
func feSqrtRatioCandidate(cand, check, u, v *fe) {
	var v2, v3, v7, uv7 fe
	feSquare(&v2, v)
	feMul(&v3, &v2, v)
	feSquare(&v7, &v3)
	feMul(&v7, &v7, v)
	feMul(&uv7, u, &v7)
	fePow2523(cand, &uv7)
	feMul(cand, cand, u)
	feMul(cand, cand, &v3)

	feSquare(check, cand)
	feMul(check, check, v)
}
