package ec25519

import (
	"bytes"
	"crypto/sha512"
	"math/big"
	"math/rand"
	"testing"
)

var pBig = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

// feToBig converts a field element to its canonical integer value.
func feToBig(t *testing.T, a *fe) *big.Int {
	t.Helper()
	var b [32]byte
	a.toBytes(&b)
	// little-endian → big-endian
	rev := make([]byte, 32)
	for i := range rev {
		rev[i] = b[31-i]
	}
	return new(big.Int).SetBytes(rev)
}

// feFromBig converts an integer in [0, p) to a field element.
func feFromBig(v *big.Int) fe {
	var buf [32]byte
	v.FillBytes(buf[:])
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return feFromBytes(buf[:])
}

// TestFieldArithmeticDifferential cross-checks fe add/sub/mul/square/
// invert against math/big over random operands.
func TestFieldArithmeticDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := new(big.Int).Rand(rng, pBig)
		b := new(big.Int).Rand(rng, pBig)
		fa, fb := feFromBig(a), feFromBig(b)

		var got fe
		feAdd(&got, &fa, &fb)
		want := new(big.Int).Add(a, b)
		want.Mod(want, pBig)
		if feToBig(t, &got).Cmp(want) != 0 {
			t.Fatalf("add mismatch at i=%d", i)
		}

		feSub(&got, &fa, &fb)
		want.Sub(a, b)
		want.Mod(want, pBig)
		if feToBig(t, &got).Cmp(want) != 0 {
			t.Fatalf("sub mismatch at i=%d", i)
		}

		feMul(&got, &fa, &fb)
		want.Mul(a, b)
		want.Mod(want, pBig)
		if feToBig(t, &got).Cmp(want) != 0 {
			t.Fatalf("mul mismatch at i=%d", i)
		}

		feSquare(&got, &fa)
		want.Mul(a, a)
		want.Mod(want, pBig)
		if feToBig(t, &got).Cmp(want) != 0 {
			t.Fatalf("square mismatch at i=%d", i)
		}

		if a.Sign() != 0 {
			feInvert(&got, &fa)
			want.ModInverse(a, pBig)
			if feToBig(t, &got).Cmp(want) != 0 {
				t.Fatalf("invert mismatch at i=%d", i)
			}
		}
	}
}

// basePoint returns the standard generator (x, 4/5) with x
// non-negative... actually the standard base point has x odd?  The
// Ed25519 base point has the even (non-negative per our convention?)
// x recovered from y = 4/5 with sign bit 0 in the canonical encoding
// 0x58666...66.  We decode that encoding directly.
func basePoint(t *testing.T) Point {
	t.Helper()
	enc := make([]byte, 32)
	for i := range enc {
		enc[i] = 0x66
	}
	enc[0] = 0x58
	p, err := Decode(enc)
	if err != nil {
		t.Fatalf("decoding standard base point: %v", err)
	}
	return p
}

// TestBasePointKnownFacts checks the decoded standard generator
// against facts pinned by the Ed25519 specification: y = 4/5, the
// point is on the curve, has order ℓ, and re-encodes to the same
// bytes.
func TestBasePointKnownFacts(t *testing.T) {
	b := basePoint(t)

	// y = 4/5 mod p.
	var zInv, y fe
	feInvert(&zInv, &b.z)
	feMul(&y, &b.y, &zInv)
	wantY := new(big.Int).ModInverse(big.NewInt(5), pBig)
	wantY.Mul(wantY, big.NewInt(4))
	wantY.Mod(wantY, pBig)
	if feToBig(t, &y).Cmp(wantY) != 0 {
		t.Fatalf("base point y != 4/5")
	}

	if !onCurve(b) {
		t.Fatalf("base point not on curve")
	}
	if b.IsSmallOrder() {
		t.Fatalf("base point claims small order")
	}

	// ℓ·B = identity certifies scalar mult against the true subgroup
	// order.
	var e [32]byte
	orderL.FillBytes(e[:])
	if !b.ScalarMult(&e).IsIdentity() {
		t.Fatalf("ℓ·B is not the identity")
	}

	enc := b.Encode(nil)
	want := basePointEncoding()
	if !bytes.Equal(enc, want) {
		t.Fatalf("base point re-encoding mismatch:\n got %x\nwant %x", enc, want)
	}
}

func basePointEncoding() []byte {
	enc := make([]byte, 32)
	for i := range enc {
		enc[i] = 0x66
	}
	enc[0] = 0x58
	return enc
}

// onCurve checks -x² + y² = 1 + d·x²·y² on the affine coordinates.
func onCurve(p Point) bool {
	var zInv, x, y, x2, y2, lhs, rhs fe
	feInvert(&zInv, &p.z)
	feMul(&x, &p.x, &zInv)
	feMul(&y, &p.y, &zInv)
	feSquare(&x2, &x)
	feSquare(&y2, &y)
	feSub(&lhs, &y2, &x2)
	feMul(&rhs, &x2, &y2)
	feMul(&rhs, &rhs, &dConst)
	feAdd(&rhs, &rhs, &feOne)
	return feEqual(&lhs, &rhs)
}

// TestAddDoubleConsistency checks 2P computed by double against P+P
// by the general addition, and the group laws P+Q = Q+P and
// (P+Q)+R = P+(Q+R), on multiples of the base point.
func TestAddDoubleConsistency(t *testing.T) {
	b := basePoint(t)
	p := b.Double()
	if !p.Equal(b.Add(b)) {
		t.Fatalf("double(B) != B+B")
	}
	q := p.Double().Add(b) // 5B
	if !p.Add(q).Equal(q.Add(p)) {
		t.Fatalf("addition not commutative")
	}
	if !p.Add(q).Add(b).Equal(p.Add(q.Add(b))) {
		t.Fatalf("addition not associative")
	}
	if !p.Add(Identity()).Equal(p) {
		t.Fatalf("P + identity != P")
	}
	if !onCurve(q) {
		t.Fatalf("5B not on curve")
	}
}

// TestScalarMultMatchesRepeatedAdd pins the window ladder against
// naive repeated addition for small scalars.
func TestScalarMultMatchesRepeatedAdd(t *testing.T) {
	b := basePoint(t)
	acc := Identity()
	for k := 1; k <= 40; k++ {
		acc = acc.Add(b)
		var e [32]byte
		big.NewInt(int64(k)).FillBytes(e[:])
		if !b.ScalarMult(&e).Equal(acc) {
			t.Fatalf("ScalarMult(%d) != %d-fold addition", k, k)
		}
	}
}

// TestMapToPointProperties: Elligator outputs are on the curve, in
// the prime-order subgroup, deterministic, and round-trip through
// Encode/Decode.
func TestMapToPointProperties(t *testing.T) {
	for i := 0; i < 50; i++ {
		seed := sha512.Sum512([]byte{byte(i), byte(i >> 8), 0xAB})
		p := MapToPoint(seed[:])
		if !onCurve(p) {
			t.Fatalf("mapped point %d not on curve", i)
		}
		if p.IsSmallOrder() {
			t.Fatalf("mapped point %d has small order", i)
		}
		var e [32]byte
		orderL.FillBytes(e[:])
		if !p.ScalarMult(&e).IsIdentity() {
			t.Fatalf("mapped point %d not killed by ℓ", i)
		}
		q := MapToPoint(seed[:])
		if !p.Equal(q) {
			t.Fatalf("MapToPoint not deterministic at %d", i)
		}
		enc := p.Encode(nil)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("decoding mapped point %d: %v", i, err)
		}
		if !dec.Equal(p) {
			t.Fatalf("encode/decode round-trip broke point %d", i)
		}
	}
}

// TestScalarMultCommutes is the heart of the commutative-encryption
// property: a·(b·P) == b·(a·P).
func TestScalarMultCommutes(t *testing.T) {
	seed := sha512.Sum512([]byte("commute"))
	p := MapToPoint(seed[:])
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		a := new(big.Int).Rand(rng, orderL)
		b := new(big.Int).Rand(rng, orderL)
		var ea, eb [32]byte
		a.FillBytes(ea[:])
		b.FillBytes(eb[:])
		ab := p.ScalarMult(&ea).ScalarMult(&eb)
		ba := p.ScalarMult(&eb).ScalarMult(&ea)
		if !ab.Equal(ba) {
			t.Fatalf("scalar mult does not commute at i=%d", i)
		}
	}
}

// TestDecodeRejections: non-canonical and off-curve encodings fail.
func TestDecodeRejections(t *testing.T) {
	// y = p (non-canonical encoding of 0).
	var buf [32]byte
	pLE := feFromBig(big.NewInt(0)) // placeholder; build p bytes by hand
	_ = pLE
	pBytes := new(big.Int).Set(pBig)
	pBytes.FillBytes(buf[:])
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	if _, err := Decode(buf[:]); err == nil {
		t.Fatalf("Decode accepted y = p")
	}

	// All-ones is ≥ p with the sign bit set; also non-canonical.
	ones := bytes.Repeat([]byte{0xFF}, 32)
	if _, err := Decode(ones); err == nil {
		t.Fatalf("Decode accepted 0xFF…FF")
	}

	// Wrong length.
	if _, err := Decode(make([]byte, 31)); err == nil {
		t.Fatalf("Decode accepted 31 bytes")
	}

	// Find an off-curve y: y = 2 happens to be on no point iff
	// (y²-1)/(dy²+1) is non-square; search small ys for one that
	// Decode rejects with ErrNotOnCurve to make sure the path fires.
	found := false
	for y := int64(2); y < 40 && !found; y++ {
		var enc [32]byte
		big.NewInt(y).FillBytes(enc[:])
		for i, j := 0, 31; i < j; i, j = i+1, j-1 {
			enc[i], enc[j] = enc[j], enc[i]
		}
		if _, err := Decode(enc[:]); err == ErrNotOnCurve {
			found = true
		}
	}
	if !found {
		t.Fatalf("no small off-curve y rejected — sqrt check suspect")
	}

	// Identity decodes fine and reports small order.
	var encI [32]byte
	encI[0] = 1
	id, err := Decode(encI[:])
	if err != nil {
		t.Fatalf("decoding identity: %v", err)
	}
	if !id.IsIdentity() || !id.IsSmallOrder() {
		t.Fatalf("identity not recognized")
	}
}

// Big-endian exponents for the generic fePow, the oracle the addition
// chain is held against.
var (
	expInvert   = new(big.Int).Sub(pBig, big.NewInt(2)).Bytes()
	expSqrt     = new(big.Int).Rsh(new(big.Int).Sub(pBig, big.NewInt(5)), 3).Bytes()
	expLegendre = new(big.Int).Rsh(new(big.Int).Sub(pBig, big.NewInt(1)), 1).Bytes()
)

// checkChainAgainstPow holds the three chain-backed exponentiations
// against square-and-multiply on one element, aliased and not.
func checkChainAgainstPow(t *testing.T, name string, a fe) {
	t.Helper()
	for _, c := range []struct {
		op    string
		chain func(v, a *fe)
		exp   []byte
	}{
		{"feInvert", feInvert, expInvert},
		{"fePow2523", fePow2523, expSqrt},
		{"refLegendre", refLegendre, expLegendre},
	} {
		var want, got fe
		fePow(&want, &a, c.exp)
		c.chain(&got, &a)
		if !feEqual(&got, &want) {
			t.Fatalf("%s(%s): chain and generic fePow disagree", c.op, name)
		}
		alias := a
		c.chain(&alias, &alias)
		if !feEqual(&alias, &want) {
			t.Fatalf("%s(%s): aliased output differs", c.op, name)
		}
	}
}

// TestChainMatchesGenericPow: the addition chain against the retained
// square-and-multiply for all three exponents, over random elements
// and the edges — 0, 1, 2, p-1, √-1, and loosely reduced limbs at the
// 2^52 bound feMul and feSquare accept.
func TestChainMatchesGenericPow(t *testing.T) {
	var minusOne fe
	feNeg(&minusOne, &feOne)
	const limb52 = 1<<52 - 1
	for _, e := range []struct {
		name string
		a    fe
	}{
		{"0", feZero},
		{"1", feOne},
		{"2", fe{l0: 2}},
		{"p-1", minusOne},
		{"sqrt(-1)", sqrtM1Const},
		{"p unreduced", fe{mask51 - 18, mask51, mask51, mask51, mask51}},
		{"all limbs 2^52-1", fe{limb52, limb52, limb52, limb52, limb52}},
		{"alternating 2^52-1", fe{limb52, 0, limb52, 0, limb52}},
		{"top limb 2^52-1", fe{l0: 1, l4: limb52}},
	} {
		checkChainAgainstPow(t, e.name, e.a)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		checkChainAgainstPow(t, "random", feFromBig(new(big.Int).Rand(rng, pBig)))
	}
	for i := 0; i < 200; i++ {
		// Any limbs below 2^52, reduced or not.
		a := fe{rng.Uint64() >> 12, rng.Uint64() >> 12, rng.Uint64() >> 12, rng.Uint64() >> 12, rng.Uint64() >> 12}
		checkChainAgainstPow(t, "random loose", a)
	}
}

// TestFeFromUniformMatchesBigMod: the field-arithmetic 512→255-bit
// reduction against math/big on random and boundary inputs.
func TestFeFromUniformMatchesBigMod(t *testing.T) {
	check := func(u []byte) {
		t.Helper()
		r := feFromUniform(u)
		want := new(big.Int).SetBytes(u)
		want.Mod(want, pBig)
		if feToBig(t, &r).Cmp(want) != 0 {
			t.Fatalf("feFromUniform(%x) = %x, want %x", u, feToBig(t, &r), want)
		}
	}
	for _, g := range goldenMap {
		check(unhex(t, g.uniform))
	}
	rng := rand.New(rand.NewSource(4))
	u := make([]byte, HashLen)
	for i := 0; i < 500; i++ {
		rng.Read(u)
		check(u)
	}
}
