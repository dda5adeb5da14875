package ec25519

import (
	"bytes"
	"testing"
)

// FuzzMapToPointRoundTrip drives arbitrary 64-byte uniform strings
// through the whole hash-to-curve pipeline and pins the invariants the
// oracle relies on: the mapped point is a canonical group element
// (prime-order subgroup, not small-order unless identity), and its
// 32-byte encoding survives Decode → Encode byte-identically.  The
// seeds cover the map's edge inputs — all-zero (Elligator maps r = 0 to
// a fixed point), all-ones, a sign-flip pattern, and values near the
// field modulus in either half of the input — plus every golden-vector
// input, so the corpus starts from the bytes whose outputs are pinned.
func FuzzMapToPointRoundTrip(f *testing.F) {
	seed := func(fill byte, tweaks ...int) []byte {
		b := make([]byte, HashLen)
		for i := range b {
			b[i] = fill
		}
		for _, i := range tweaks {
			b[i] ^= 0xff
		}
		return b
	}
	f.Add(seed(0x00))
	f.Add(seed(0xff))
	f.Add(seed(0x55, 0, 31, 32, 63))
	// 2^255 - 19 in the low 32 bytes: a non-canonical field encoding
	// the reduction step must fold to zero.
	p := seed(0x00)
	p[0] = 0xed
	for i := 1; i < 31; i++ {
		p[i] = 0xff
	}
	p[31] = 0x7f
	f.Add(p)
	// High bit set in the sign byte of each half.
	f.Add(seed(0x01, 31))
	f.Add(seed(0x80, 63))
	for _, g := range goldenMap {
		f.Add(unhex(f, g.uniform))
	}

	f.Fuzz(func(t *testing.T, uniform []byte) {
		if len(uniform) != HashLen {
			t.Skip()
		}
		pt := MapToPoint(uniform)
		if pt.IsSmallOrder() && !pt.IsIdentity() {
			t.Fatal("MapToPoint produced a small-order non-identity point")
		}
		enc := pt.Encode(nil)
		if len(enc) != EncodedLen {
			t.Fatalf("encoding is %d bytes, want %d", len(enc), EncodedLen)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode rejected MapToPoint output %x: %v", enc, err)
		}
		if !back.Equal(pt) {
			t.Fatalf("decoded point differs from mapped point for input %x", uniform)
		}
		if re := back.Encode(nil); !bytes.Equal(re, enc) {
			t.Fatalf("re-encoding not byte-identical: %x vs %x", re, enc)
		}
	})
}

// FuzzDecodeNoPanic feeds arbitrary 32-byte strings to Decode: every
// input must either decode to a point that re-encodes to the identical
// canonical bytes, or be rejected — never panic, never round-trip to
// different bytes (a second encoding of the same point would break the
// protocol's sort/compare-by-encoding invariant).
func FuzzDecodeNoPanic(f *testing.F) {
	f.Add(make([]byte, EncodedLen))
	one := make([]byte, EncodedLen)
	one[0] = 1
	f.Add(one) // the identity's canonical encoding
	high := make([]byte, EncodedLen)
	high[31] = 0x80
	f.Add(high)
	noncanon := make([]byte, EncodedLen)
	for i := range noncanon {
		noncanon[i] = 0xff
	}
	noncanon[31] = 0x7f
	f.Add(noncanon) // y >= p: must be rejected as non-canonical

	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) != EncodedLen {
			t.Skip()
		}
		pt, err := Decode(b)
		if err != nil {
			return
		}
		if re := pt.Encode(nil); !bytes.Equal(re, b) {
			t.Fatalf("accepted encoding %x re-encodes to %x", b, re)
		}
	})
}

// FuzzFeInvert pins the inversion the whole per-element path leans on:
// a·a⁻¹ = 1 for every a ≠ 0, and 0⁻¹ = 0 — the convention that lets
// the Elligator map and feSqrtRatio divide without a branch.  The
// input is five raw limbs, masked to the 2^52 bound the multiplication
// accepts, so unreduced representations are exercised too.
func FuzzFeInvert(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(2), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(mask51-18), uint64(mask51), uint64(mask51), uint64(mask51), uint64(mask51))   // p ≡ 0
	f.Add(uint64(mask51-19), uint64(mask51), uint64(mask51), uint64(mask51), uint64(mask51))   // p-1
	f.Add(uint64(1<<52-1), uint64(1<<52-1), uint64(1<<52-1), uint64(1<<52-1), uint64(1<<52-1)) // loosest
	f.Add(sqrtM1Const.l0, sqrtM1Const.l1, sqrtM1Const.l2, sqrtM1Const.l3, sqrtM1Const.l4)

	f.Fuzz(func(t *testing.T, l0, l1, l2, l3, l4 uint64) {
		const m = 1<<52 - 1
		a := fe{l0 & m, l1 & m, l2 & m, l3 & m, l4 & m}
		var inv, prod fe
		feInvert(&inv, &a)
		if feIsZero(&a) {
			if !feIsZero(&inv) {
				t.Fatalf("0⁻¹ must be 0 (limbs %x)", a)
			}
			return
		}
		feMul(&prod, &a, &inv)
		if !feEqual(&prod, &feOne) {
			t.Fatalf("a·a⁻¹ ≠ 1 for limbs %x", a)
		}
	})
}

// FuzzMapToPoint holds the one-exponentiation map against the
// five-exponentiation oracle on arbitrary inputs, seeded with the
// differential test's r = 0 … 5 and the golden inputs.
func FuzzMapToPoint(f *testing.F) {
	for r := byte(0); r <= 5; r++ {
		uniform := make([]byte, HashLen)
		uniform[HashLen-1] = r
		f.Add(uniform)
	}
	for _, g := range goldenMap {
		f.Add(unhex(f, g.uniform))
	}
	f.Fuzz(func(t *testing.T, uniform []byte) {
		if len(uniform) != HashLen {
			t.Skip()
		}
		samePoint(t, "MapToPoint", MapToPoint(uniform), refMapToPoint(uniform))
	})
}

// FuzzScalarMult holds the signed-window ladder against the
// unsigned-window oracle on every decodable point — torsion included —
// and every 32-byte scalar, seeded with the differential test's edge
// scalars and the golden pairs.
func FuzzScalarMult(f *testing.F) {
	for _, e := range diffScalars() {
		f.Add(basePointEncoding(), e[:])
	}
	for _, g := range goldenScalarMult {
		f.Add(unhex(f, g.point), unhex(f, g.scalar))
	}
	f.Fuzz(func(t *testing.T, point, scalar []byte) {
		if len(scalar) != 32 {
			t.Skip()
		}
		p, err := Decode(point)
		if err != nil {
			t.Skip()
		}
		e := [32]byte(scalar)
		samePoint(t, "ScalarMult", p.ScalarMult(&e), refScalarMult(p, &e))
	})
}
