package ec25519

import (
	"bytes"
	"crypto/sha512"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// The kernels this package ran before the one-exponentiation map and
// the mixed-coordinate ladder, kept as the differential oracles the
// tests and fuzz targets hold the current ones against: every
// operation here works on full extended-coordinate Points, inverts
// where the current code carries a fraction, and indexes its window
// table directly.

// refLegendre sets v = a^((p-1)/2): 1 for a non-zero square, -1 for a
// non-square, 0 for zero.
func refLegendre(v, a *fe) {
	var t, aa fe
	fePow2523(&t, a)
	feSquareN(&t, &t, 2)
	feSquare(&aa, a)
	feMul(v, &t, &aa)
}

// refMontRHS sets g = u³ + A·u² + u, the right-hand side of the
// Montgomery curve equation.
func refMontRHS(g, u *fe) {
	var u2, u3, au2 fe
	feSquare(&u2, u)
	feMul(&u3, &u2, u)
	feMul(&au2, &montAConst, &u2)
	feAdd(g, &u3, &au2)
	feAdd(g, g, u)
}

// refElligator2 is the five-exponentiation map: an inversion for u, a
// Legendre symbol to pick the branch, a square root, and two more
// inversions for the affine Edwards coordinates.
func refElligator2(r *fe) Point {
	var rr2, den, d0, negA fe
	feSquare(&rr2, r)
	feAdd(&rr2, &rr2, &rr2)
	feAdd(&den, &rr2, &feOne)
	feInvert(&den, &den)
	feNeg(&negA, &montAConst)
	feMul(&d0, &negA, &den)

	var gd, chi, u fe
	refMontRHS(&gd, &d0)
	refLegendre(&chi, &gd)
	if feEqual(&chi, &feOne) || feIsZero(&gd) {
		u = d0
	} else {
		feSub(&u, &negA, &d0)
	}

	var gu, v fe
	refMontRHS(&gu, &u)
	if !feSqrtRatio(&v, &gu, &feOne) {
		panic("ec25519: elligator2 branch selection failed")
	}

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

	pt := Point{projPoint: projPoint{x: x, y: y, z: feOne}}
	feMul(&pt.t, &x, &y)
	return pt
}

// refMapToPoint is MapToPoint over refElligator2 and three full
// doublings.
func refMapToPoint(uniform []byte) Point {
	r := feFromUniform(uniform)
	ed := refElligator2(&r)
	refDouble(&ed, &ed)
	refDouble(&ed, &ed)
	refDouble(&ed, &ed)
	return ed
}

// refAdd sets v = p + q (add-2008-hwcd-3) on extended coordinates.
func refAdd(v, p, q *Point) {
	var a, b, c, d, e, f, g, h, t0, t1 fe

	feSub(&t0, &p.y, &p.x)
	feSub(&t1, &q.y, &q.x)
	feMul(&a, &t0, &t1)

	feAdd(&t0, &p.y, &p.x)
	feAdd(&t1, &q.y, &q.x)
	feMul(&b, &t0, &t1)

	feMul(&c, &p.t, &q.t)
	feMul(&c, &c, &d2Const)

	feMul(&d, &p.z, &q.z)
	feAdd(&d, &d, &d)

	feSub(&e, &b, &a)
	feSub(&f, &d, &c)
	feAdd(&g, &d, &c)
	feAdd(&h, &b, &a)

	feMul(&v.x, &e, &f)
	feMul(&v.y, &g, &h)
	feMul(&v.t, &e, &h)
	feMul(&v.z, &f, &g)
}

// refDouble sets v = 2p on extended coordinates.
func refDouble(v, p *Point) {
	var xx, yy, b, a, e, yPlus, yMinus, tt fe

	feSquare(&xx, &p.x)
	feSquare(&yy, &p.y)
	feSquare(&b, &p.z)
	feAdd(&b, &b, &b)

	feAdd(&a, &p.x, &p.y)
	feSquare(&a, &a)
	feAdd(&yPlus, &yy, &xx)
	feSub(&yMinus, &yy, &xx)
	feSub(&e, &a, &yPlus)
	feSub(&tt, &b, &yMinus)

	feMul(&v.x, &e, &tt)
	feMul(&v.y, &yPlus, &yMinus)
	feMul(&v.z, &yMinus, &tt)
	feMul(&v.t, &e, &yPlus)
}

// refScalarMult is the unsigned fixed-window ladder: a 15-entry table
// indexed by each 4-bit window of the big-endian scalar.
func refScalarMult(p Point, e *[32]byte) Point {
	var table [16]Point
	table[0] = identity
	table[1] = p
	for i := 2; i < 16; i++ {
		refAdd(&table[i], &table[i-1], &p)
	}
	v := identity
	for _, by := range e {
		for _, nib := range [2]uint8{by >> 4, by & 15} {
			refDouble(&v, &v)
			refDouble(&v, &v)
			refDouble(&v, &v)
			refDouble(&v, &v)
			refAdd(&v, &v, &table[nib])
		}
	}
	return v
}

// wellFormed reports X·Y = Z·T, the invariant of extended coordinates
// that the T-free intermediate forms must restore on the way out.
func wellFormed(p Point) bool {
	var xy, zt fe
	feMul(&xy, &p.x, &p.y)
	feMul(&zt, &p.z, &p.t)
	return feEqual(&xy, &zt)
}

// samePoint holds a kernel's result against its oracle's: well-formed
// and the same canonical bytes.
func samePoint(t testing.TB, what string, got, want Point) {
	t.Helper()
	if !wellFormed(got) {
		t.Fatalf("%s: result has X·Y ≠ Z·T", what)
	}
	if g, w := got.Encode(nil), want.Encode(nil); !bytes.Equal(g, w) {
		t.Fatalf("%s: got %x, oracle says %x", what, g, w)
	}
}

// elligatorBranch recomputes the fraction elligator2 takes its one
// square-root candidate of and reports which fourth root of unity
// cand²·den/num is: 0 for 1, 1 for -1, 2 for √-1, 3 for -√-1 — the
// four arms of its switch — or -1 when num or den is zero.
func elligatorBranch(r *fe) int {
	var rr2, d, nn, dd, nd, num, den, cand, check fe
	feSquare(&rr2, r)
	feAdd(&rr2, &rr2, &rr2)
	feAdd(&d, &rr2, &feOne)
	feSquare(&nn, &negAConst)
	feSquare(&dd, &d)
	feMul(&nd, &negAConst, &d)
	feMul(&num, &montAConst, &nd)
	feAdd(&num, &num, &nn)
	feAdd(&num, &num, &dd)
	feMul(&num, &num, &negAConst)
	feMul(&den, &dd, &d)
	feSqrtRatioCandidate(&cand, &check, &num, &den)
	if feIsZero(&check) {
		return -1
	}
	root := num
	for k, unit := range []*fe{&feOne, &sqrtM1Const} {
		var pos, neg fe
		feMul(&pos, &root, unit)
		feNeg(&neg, &pos)
		if feEqual(&check, &pos) {
			return 2 * k
		}
		if feEqual(&check, &neg) {
			return 2*k + 1
		}
	}
	return -1
}

// TestMapToPointMatchesOracle: the one-exponentiation map against the
// five-exponentiation one on r = 0 … 5, the golden inputs and 20 000
// hash-derived inputs, with every arm of the branch switch seen.
func TestMapToPointMatchesOracle(t *testing.T) {
	var hits [4]int
	check := func(uniform []byte) {
		t.Helper()
		samePoint(t, fmt.Sprintf("MapToPoint(%x)", uniform), MapToPoint(uniform), refMapToPoint(uniform))
		r := feFromUniform(uniform)
		if b := elligatorBranch(&r); b >= 0 {
			hits[b]++
		}
	}
	for r := byte(0); r <= 5; r++ {
		uniform := make([]byte, HashLen)
		uniform[HashLen-1] = r
		check(uniform)
	}
	for _, g := range goldenMap {
		check(unhex(t, g.uniform))
	}
	var ctr [4]byte
	for i := uint32(0); i < 20000; i++ {
		binary.BigEndian.PutUint32(ctr[:], i)
		uniform := sha512.Sum512(ctr[:])
		check(uniform[:])
	}
	for b, n := range hits {
		if n < 1000 {
			t.Errorf("branch %d of the candidate switch hit %d times in %d inputs", b, n, 20000)
		}
	}
}

// diffScalars are the ladder's edge scalars: 0, 1, the cofactor, ℓ-1,
// ℓ, every digit at the recoding's -8 boundary, and 2^256-1 (every
// digit carries, and the carry digit is set).
func diffScalars() [][32]byte {
	var out [][32]byte
	add := func(v *big.Int) {
		var e [32]byte
		v.FillBytes(e[:])
		out = append(out, e)
	}
	add(big.NewInt(0))
	add(big.NewInt(1))
	add(big.NewInt(8))
	add(new(big.Int).Sub(orderL, big.NewInt(1)))
	add(orderL)
	var e [32]byte
	for i := range e {
		e[i] = 0x88
	}
	out = append(out, e)
	for i := range e {
		e[i] = 0xff
	}
	return append(out, e)
}

// diffPoints returns n curve points for the ladder tests: the
// identity, the base point, subgroup points from the map, and points
// decoded from arbitrary y (which carry a torsion component, so the
// formulas' completeness off the subgroup is exercised too).
func diffPoints(t testing.TB, n int) []Point {
	t.Helper()
	pts := []Point{Identity()}
	b, err := Decode(basePointEncoding())
	if err != nil {
		t.Fatal(err)
	}
	pts = append(pts, b)
	for i := 0; len(pts) < n; i++ {
		seed := sha512.Sum512([]byte{byte(i), byte(i >> 8), 0xD1})
		if i%2 == 0 {
			pts = append(pts, MapToPoint(seed[:]))
			continue
		}
		seed[31] &= 0x7f
		if p, err := Decode(seed[:32]); err == nil {
			pts = append(pts, p)
		}
	}
	return pts
}

// TestScalarMultMatchesOracle: the signed-window mixed-coordinate
// ladder against the unsigned extended-coordinate one, over the edge
// scalars and random 256-bit scalars on every kind of point.
func TestScalarMultMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i, p := range diffPoints(t, 40) {
		scalars := diffScalars()
		for j := 0; j < 10; j++ {
			var e [32]byte
			rng.Read(e[:])
			scalars = append(scalars, e)
		}
		for _, e := range scalars {
			samePoint(t, fmt.Sprintf("point %d × %x", i, e), p.ScalarMult(&e), refScalarMult(p, &e))
		}
	}
}

// TestAddDoubleMatchOracle pins the public Add and Double, now thin
// compositions of the internal forms, to the extended-coordinate
// formulas.
func TestAddDoubleMatchOracle(t *testing.T) {
	pts := diffPoints(t, 12)
	for i, p := range pts {
		var want Point
		refDouble(&want, &p)
		samePoint(t, fmt.Sprintf("2·point %d", i), p.Double(), want)
		for j, q := range pts {
			refAdd(&want, &p, &q)
			samePoint(t, fmt.Sprintf("point %d + point %d", i, j), p.Add(q), want)
		}
	}
}

// TestIsSmallOrderMatchesOracle: the T-free torsion test against three
// full doublings and an affine comparison, on the eight torsion points
// (reached as ℓ·P) and on points of large order.
func TestIsSmallOrderMatchesOracle(t *testing.T) {
	var l [32]byte
	orderL.FillBytes(l[:])
	small := 0
	for i, p := range diffPoints(t, 60) {
		for _, q := range []Point{p, p.ScalarMult(&l)} {
			want := q
			refDouble(&want, &want)
			refDouble(&want, &want)
			refDouble(&want, &want)
			if got := q.IsSmallOrder(); got != want.Equal(identity) {
				t.Fatalf("point %d: IsSmallOrder = %v, oracle says %v", i, got, !got)
			} else if got {
				small++
			}
		}
	}
	if small < 60 {
		t.Fatalf("only %d small-order inputs exercised", small)
	}
}
