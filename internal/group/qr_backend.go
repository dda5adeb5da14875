package group

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/big"
)

// Backend implementation for the safe-prime group.  *Group is the code-0
// ("qr") backend: the Example 1 domain QR(p) with f_e(x) = x^e mod p.
// Every method here must stay byte-identical to the pre-backend code
// paths — the handshake digest, the hash-to-group reduction, and the
// element encodings are all pinned by golden-vector tests.

var _ Backend = (*Group)(nil)

// Name returns the backend registry name, "qr<bits>" (e.g. "qr1024").
func (g *Group) Name() string { return fmt.Sprintf("qr%d", g.bits) }

// Code returns CodeQR: the safe-prime backend is the wire default, and
// its code 0 is what legacy headers implicitly carry.
func (g *Group) Code() Code { return CodeQR }

// ParamDigest identifies the group by SHA-256 of the big-endian modulus
// bytes — the same digest wire.GroupDigest has always put in the
// handshake header, so safe-prime sessions remain byte-identical.
func (g *Group) ParamDigest() [32]byte { return sha256.Sum256(g.p.Bytes()) }

// HashInputLen returns the uniform-byte budget of MapToElement:
// 2·ElementLen bytes, so the bias of the mod-(p-1) reduction is
// negligible (2^-Bits).
func (g *Group) HashInputLen() int { return 2 * g.ElementLen() }

// MapToElement maps HashInputLen uniform bytes into QR(p) exactly the
// way the Section 3.2.2 oracle always has: interpret the bytes as a
// big-endian integer, reduce into [1, p-1] via mod (p-1) plus one, and
// square to land in the residue subgroup.  The reduction is pinned by
// the oracle golden vectors and must not change.
func (g *Group) MapToElement(uniform []byte) *big.Int {
	v := new(big.Int).SetBytes(uniform)
	v.Mod(v, g.pMinus1)
	v.Add(v, one) // now in [1, p-1]
	return g.Square(v)
}

// RandomScalar draws a uniform commutative-encryption key from
// KeyF = [1, q-1], wrapping RandomExponent.
func (g *Group) RandomScalar(r io.Reader) (*Scalar, error) {
	e, err := g.RandomExponent(r)
	if err != nil {
		return nil, err
	}
	return newScalar(e), nil
}

// ScalarFromBig validates e ∈ [1, q-1] and wraps it as a key scalar.
func (g *Group) ScalarFromBig(e *big.Int) (*Scalar, error) {
	if e == nil || e.Sign() <= 0 || e.Cmp(g.q) >= 0 {
		return nil, ErrBadScalar
	}
	return newScalar(new(big.Int).Set(e)), nil
}

// InvertScalar returns the key scalar e' = e^{-1} mod q with
// f_{e'} = f_e^{-1} (Property 3 of Definition 2).
func (g *Group) InvertScalar(e *Scalar) (*Scalar, error) {
	inv, err := g.InvExponent(e.value())
	if err != nil {
		return nil, err
	}
	return newScalar(inv), nil
}

// Apply computes the commutative power function f_e(x) = x^e mod p —
// one C_e of the paper's cost model.
func (g *Group) Apply(e *Scalar, x *big.Int) (*big.Int, error) {
	if !g.Contains(x) {
		return nil, ErrNotInGroup
	}
	return g.Exp(x, e.value()), nil
}
