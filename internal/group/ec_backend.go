package group

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
	"math/big"
	"sync"

	"minshare/internal/ec25519"
)

// ecParamID is the canonical parameter string hashed into the EC
// backend's ParamDigest.  Bump the trailing version if the encoding,
// the hash-to-curve map, or the subgroup policy ever changes — peers
// must not silently interoperate across such a change.
const ecParamID = "minshare/ec25519: edwards25519 prime-order subgroup, elligator2 map, cofactor-cleared, compressed-y wire encoding, v1"

// ECGroup is the Curve25519-based commutative-encryption backend: the
// prime-order (ℓ ≈ 2^252) subgroup of edwards25519, with
// f_e(x) = e·x over hashed-to-curve points.  Commutativity is
// immediate from scalar-multiplication associativity, and the DDH
// assumption this group is standardly believed to satisfy is the same
// assumption the paper's Example 1 needs — at ~128-bit security, i.e.
// at least the strength of a 1024-bit safe prime (ECRYPT/NIST put
// 1024-bit factoring-class moduli at ~80-bit security), for a small
// fraction of the per-operation cost.
//
// Elements cross package boundaries as *big.Int containers holding the
// 32-byte compressed-Edwards-y encoding read as a big-endian integer;
// numeric order on containers therefore equals lexicographic order of
// the wire bytes, exactly as for safe-prime residues.
//
// An ECGroup is stateless, immutable, and safe for concurrent use.
type ECGroup struct{}

var (
	ecSingleton     = &ECGroup{}
	ecDigest        [32]byte
	ecDigestOnce    sync.Once
	ecScalarModulus = ec25519.Order()
)

// EC25519 returns the Curve25519 backend (a shared singleton).
func EC25519() *ECGroup { return ecSingleton }

var _ Backend = (*ECGroup)(nil)

// Name returns the backend registry name "ec25519".
func (*ECGroup) Name() string { return "ec25519" }

// Code returns CodeEC25519, the backend's handshake identifier.
func (*ECGroup) Code() Code { return CodeEC25519 }

// Bits returns the wire codeword width: 256 bits per transmitted
// element (the paper's parameter k in the §6.1 communication terms).
func (*ECGroup) Bits() int { return 8 * ec25519.EncodedLen }

// ElementLen returns the fixed element encoding width, 32 bytes.
func (*ECGroup) ElementLen() int { return ec25519.EncodedLen }

// String implements fmt.Stringer.
func (*ECGroup) String() string {
	return "edwards25519 prime-order subgroup (ec25519)"
}

// ParamDigest identifies the curve parameters for the handshake's
// group check: SHA-256 of the canonical parameter string.
func (*ECGroup) ParamDigest() [32]byte {
	ecDigestOnce.Do(func() { ecDigest = sha256.Sum256([]byte(ecParamID)) })
	return ecDigest
}

// Contains reports whether x is the container of a canonical point
// encoding that is not one of the eight small-torsion points: it must
// decode (canonical y, on curve, canonical x sign) and its order must
// not divide the cofactor.  That admits every point of the full curve
// group of order 8ℓ outside the torsion subgroup, mixed-order points
// P+T included — it is not a prime-order-subgroup test.  The key, not
// this check, removes the torsion component: Apply multiplies by a
// representative of e that is a multiple of 8 (newECScalar), so
// f_e(P+T) = f_e(P) and the output carries nothing of e mod 8.
func (*ECGroup) Contains(x *big.Int) bool {
	_, err := ecDecode(x)
	return err == nil
}

// ecDecode unpacks an element container into a curve point, rejecting
// anything Contains rejects.  The point comes back by value, so the
// accepting path allocates nothing.
func ecDecode(x *big.Int) (ec25519.Point, error) {
	if x == nil || x.Sign() < 0 || x.BitLen() > 8*ec25519.EncodedLen {
		return ec25519.Point{}, ErrNotInGroup
	}
	var buf [ec25519.EncodedLen]byte
	x.FillBytes(buf[:])
	p, err := ec25519.Decode(buf[:])
	if err != nil {
		return ec25519.Point{}, fmt.Errorf("%w: %v", ErrNotInGroup, err)
	}
	if p.IsSmallOrder() {
		return ec25519.Point{}, fmt.Errorf("%w: small-order point", ErrNotInGroup)
	}
	return p, nil
}

// ecEncode packs a curve point into its element container.  The
// encoding goes through a stack buffer; the container and its words
// are the only allocations.
func ecEncode(p ec25519.Point) *big.Int {
	var buf [ec25519.EncodedLen]byte
	return new(big.Int).SetBytes(p.Encode(buf[:0]))
}

// HashInputLen returns the uniform-byte budget of MapToElement (64:
// 512 bits folded mod the field prime keep reduction bias negligible).
func (*ECGroup) HashInputLen() int { return ec25519.HashLen }

// MapToElement maps uniform bytes into the subgroup via Elligator2
// plus cofactor clearing — the EC half of the §3.2.2 random oracle.
// Two field exponentiations (the map's square root and the encoding's
// inversion); the returned container is the only thing allocated.
func (*ECGroup) MapToElement(uniform []byte) *big.Int {
	return ecEncode(ec25519.MapToPoint(uniform))
}

// RandomScalar draws a uniform key scalar from KeyF = [1, ℓ-1].
func (*ECGroup) RandomScalar(r io.Reader) (*Scalar, error) {
	if r == nil {
		r = rand.Reader
	}
	lMinus1 := new(big.Int).Sub(ecScalarModulus, big.NewInt(1))
	e, err := rand.Int(r, lMinus1)
	if err != nil {
		return nil, fmt.Errorf("group: sampling ec scalar: %w", err)
	}
	e.Add(e, big.NewInt(1)) // uniform in [1, ℓ-1]
	return newECScalar(e), nil
}

// ScalarFromBig validates e ∈ [1, ℓ-1] and wraps it as a key scalar.
func (*ECGroup) ScalarFromBig(e *big.Int) (*Scalar, error) {
	if e == nil || e.Sign() <= 0 || e.Cmp(ecScalarModulus) >= 0 {
		return nil, ErrBadScalar
	}
	return newECScalar(new(big.Int).Set(e)), nil
}

// InvertScalar returns e' = e^{-1} mod ℓ, so that
// Apply(e', Apply(e, x)) = x (Property 3 of Definition 2).
func (*ECGroup) InvertScalar(e *Scalar) (*Scalar, error) {
	inv := new(big.Int).ModInverse(e.value(), ecScalarModulus)
	if inv == nil {
		return nil, fmt.Errorf("group: ec scalar not invertible modulo subgroup order")
	}
	return newECScalar(inv), nil
}

// ecInv8 is 8⁻¹ mod ℓ.
var ecInv8 = new(big.Int).ModInverse(big.NewInt(8), ecScalarModulus)

// newECScalar wraps e ∈ [1, ℓ-1] together with the bytes Apply
// multiplies by: r = 8·(e·8⁻¹ mod ℓ), the representative in [0, 8ℓ)
// with r ≡ e (mod ℓ) and r ≡ 0 (mod 8).  On the prime-order subgroup r
// acts exactly as e; on a mixed-order point P+T it sends the torsion
// part T to the identity, so f_e(P+T) = e·P and no bit of e mod 8
// reaches the output.  Scalar.Big still returns e.
func newECScalar(e *big.Int) *Scalar {
	s := newScalar(e)
	r := new(big.Int).Mul(e, ecInv8)
	r.Mod(r, ecScalarModulus).Lsh(r, 3)
	r.FillBytes(s.rep[:])
	return s
}

// Apply computes f_e(x) = r·x with r e's torsion-killing
// representative (newECScalar) — one scalar multiplication, the EC
// backend's C_e operation: the ladder plus one point decode (a square
// root), the small-order test and one encode (an inversion).  The
// returned container is the only thing allocated (TestECAllocBudget).
func (*ECGroup) Apply(e *Scalar, x *big.Int) (*big.Int, error) {
	p, err := ecDecode(x)
	if err != nil {
		return nil, err
	}
	return ecEncode(p.ScalarMult(&e.rep)), nil
}
