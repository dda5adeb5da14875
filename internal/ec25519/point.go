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
	x, y, z, t fe
}

// identity is the neutral element (0, 1).
var identity = Point{y: feOne, z: feOne}

// Identity returns the neutral element of the curve group.
func Identity() Point {
	return identity
}

// pointAdd sets v = p + q using the complete a=-1 extended-coordinate
// addition (add-2008-hwcd-3).  v may alias p or q.
func pointAdd(v, p, q *Point) {
	var a, b, c, d, e, f, g, h, t0, t1 fe

	feSub(&t0, &p.y, &p.x)
	feSub(&t1, &q.y, &q.x)
	feMul(&a, &t0, &t1) // A = (Y1-X1)(Y2-X2)

	feAdd(&t0, &p.y, &p.x)
	feAdd(&t1, &q.y, &q.x)
	feMul(&b, &t0, &t1) // B = (Y1+X1)(Y2+X2)

	feMul(&c, &p.t, &q.t)
	feMul(&c, &c, &d2Const) // C = 2d·T1·T2

	feMul(&d, &p.z, &q.z)
	feAdd(&d, &d, &d) // D = 2·Z1·Z2

	feSub(&e, &b, &a)
	feSub(&f, &d, &c)
	feAdd(&g, &d, &c)
	feAdd(&h, &b, &a)

	feMul(&v.x, &e, &f)
	feMul(&v.y, &g, &h)
	feMul(&v.t, &e, &h)
	feMul(&v.z, &f, &g)
}

// pointDouble sets v = 2p.  v may alias p.
func pointDouble(v, p *Point) {
	var xx, yy, b, a, e, yPlus, yMinus, tt fe

	feSquare(&xx, &p.x)
	feSquare(&yy, &p.y)
	feSquare(&b, &p.z)
	feAdd(&b, &b, &b) // 2Z²

	feAdd(&a, &p.x, &p.y)
	feSquare(&a, &a) // (X+Y)²
	feAdd(&yPlus, &yy, &xx)
	feSub(&yMinus, &yy, &xx)
	feSub(&e, &a, &yPlus) // 2XY
	feSub(&tt, &b, &yMinus)

	feMul(&v.x, &e, &tt)
	feMul(&v.y, &yPlus, &yMinus)
	feMul(&v.z, &yMinus, &tt)
	feMul(&v.t, &e, &yPlus)
}

// mulByCofactor sets v = 8p.
func mulByCofactor(v, p *Point) {
	pointDouble(v, p)
	pointDouble(v, v)
	pointDouble(v, v)
}

// Add returns p + q.
func (p Point) Add(q Point) Point {
	pointAdd(&p, &p, &q)
	return p
}

// Double returns 2p.
func (p Point) Double() Point {
	pointDouble(&p, &p)
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
	return p.Equal(identity)
}

// IsSmallOrder reports whether p's order divides the cofactor 8, i.e.
// whether p lies in the small torsion subgroup (the identity and the
// seven low-order points).  Such encodings are rejected as protocol
// elements: they are not outputs of the hash-to-curve map and a
// torsion component would make f_e lose information.
func (p Point) IsSmallOrder() bool {
	mulByCofactor(&p, &p)
	return p.IsIdentity()
}

// ScalarMult returns e·p, with the scalar given as 32 big-endian
// bytes.  Fixed 4-bit windows over a 15-entry table; every window adds
// through the complete formulas (the zero window adds the identity),
// so the sequence of point operations does not depend on scalar bits.
// One call is the EC backend's C_e operation: 14 + 64 additions and
// 256 doublings, 77 µs, no field exponentiation and no allocation.
func (p Point) ScalarMult(e *[32]byte) Point {
	var table [16]Point
	table[0] = identity
	table[1] = p
	for i := 2; i < 16; i++ {
		pointAdd(&table[i], &table[i-1], &p)
	}
	v := identity
	for _, by := range e {
		for _, nib := range [2]uint8{by >> 4, by & 15} {
			pointDouble(&v, &v)
			pointDouble(&v, &v)
			pointDouble(&v, &v)
			pointDouble(&v, &v)
			pointAdd(&v, &v, &table[nib])
		}
	}
	return v
}

// Encode appends the canonical 32-byte compressed encoding of p to
// dst: the little-endian bytes of y with the sign of x in the top bit.
// Normalising Z costs one field inversion (≈5 µs with the two
// multiplications); with a dst of capacity EncodedLen nothing is
// allocated.
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
// square root, ≈5 µs in all).
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

	p := Point{x: x, y: y, z: feOne}
	feMul(&p.t, &x, &y)
	return p, nil
}

// feSqrtRatio sets r to the non-negative square root of u/v and
// reports whether u/v was square.  Division by zero yields zero, so
// (0, v) gives (0, true) and (u≠0, 0) gives (0, false) — the
// conventions the Elligator map and Decode rely on.  Uses the
// p ≡ 5 (mod 8) shortcut: candidate u·v³·(u·v⁷)^((p-5)/8), fixed up
// by √-1 when the check lands on -u.
func feSqrtRatio(r, u, v *fe) bool {
	var v2, v3, v7, uv7, cand, check, negU fe
	feSquare(&v2, v)
	feMul(&v3, &v2, v)
	feSquare(&v7, &v3)
	feMul(&v7, &v7, v)
	feMul(&uv7, u, &v7)
	fePow2523(&cand, &uv7)
	feMul(&cand, &cand, u)
	feMul(&cand, &cand, &v3)

	feSquare(&check, &cand)
	feMul(&check, &check, v) // v·cand²
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
