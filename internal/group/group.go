// Package group implements the number-theoretic substrate used by every
// protocol in this repository: the multiplicative group of quadratic
// residues modulo a safe prime.
//
// A safe prime is a prime p such that q = (p-1)/2 is also prime.  The set
// QR(p) of quadratic residues modulo p then forms a cyclic subgroup of
// Z_p* of prime order q.  This is exactly the domain DomF of Example 1 in
// the paper (Agrawal, Evfimievski, Srikant; SIGMOD 2003): under the
// Decisional Diffie-Hellman assumption the power function
//
//	f_e(x) = x^e mod p
//
// is a commutative encryption over QR(p).  Because q is odd, every safe
// prime satisfies p ≡ 3 (mod 4); the package exploits this to encode
// arbitrary messages m ∈ [1, q] as quadratic residues (exactly one of m
// and p-m is a residue), which Section 4.2 / Example 2 of the paper needs
// for the multiplicative payload cipher K.
//
// The package provides pre-generated groups of several bit sizes for
// tests and benchmarks, a generator for fresh groups, uniform sampling of
// elements and exponents, and constant factories for hashing into the
// group (used by package oracle).
package group

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Common errors returned by the package.
var (
	// ErrNotSafePrime reports that a modulus failed safe-prime validation.
	ErrNotSafePrime = errors.New("group: modulus is not a safe prime")
	// ErrNotInGroup reports that a value is not a quadratic residue in [1, p-1].
	ErrNotInGroup = errors.New("group: element is not in QR(p)")
	// ErrMessageRange reports that a message is outside the encodable range [1, q].
	ErrMessageRange = errors.New("group: message outside encodable range [1, (p-1)/2]")
)

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// Group is the multiplicative group QR(p) of quadratic residues modulo a
// safe prime p = 2q + 1.  It has prime order q.  A Group is immutable and
// safe for concurrent use.
type Group struct {
	p *big.Int // safe prime modulus
	q *big.Int // (p-1)/2, the group order, also prime

	pMinus1 *big.Int // cached p-1
	bits    int      // bit length of p
}

// New constructs a Group from a safe prime p, validating that p and
// (p-1)/2 are (probable) primes and that p ≡ 3 (mod 4).  The validation
// uses 20 Miller-Rabin rounds plus the Baillie-PSW test built into
// math/big, so the error probability is negligible.
func New(p *big.Int) (*Group, error) {
	if p == nil || p.Sign() <= 0 {
		return nil, ErrNotSafePrime
	}
	// p ≡ 3 (mod 4) is implied by p = 2q+1 with q odd prime, but checking
	// it first is cheap and rejects most garbage before the primality test.
	if p.Bit(0) != 1 || p.Bit(1) != 1 {
		return nil, ErrNotSafePrime
	}
	q := new(big.Int).Rsh(p, 1)
	if !p.ProbablyPrime(20) || !q.ProbablyPrime(20) {
		return nil, ErrNotSafePrime
	}
	return &Group{
		p:       new(big.Int).Set(p),
		q:       q,
		pMinus1: new(big.Int).Sub(p, one),
		bits:    p.BitLen(),
	}, nil
}

// MustNew is like New but panics on error.  It is intended for package
// initialization with known-good constants.
func MustNew(p *big.Int) *Group {
	g, err := New(p)
	if err != nil {
		panic(fmt.Sprintf("group.MustNew: %v", err))
	}
	return g
}

// NewFromHex constructs a Group from a hexadecimal safe-prime string.
func NewFromHex(hex string) (*Group, error) {
	p, ok := new(big.Int).SetString(hex, 16)
	if !ok {
		return nil, fmt.Errorf("group: invalid hex modulus")
	}
	return New(p)
}

// P returns a copy of the safe-prime modulus.
func (g *Group) P() *big.Int { return new(big.Int).Set(g.p) }

// Q returns a copy of the group order q = (p-1)/2.
func (g *Group) Q() *big.Int { return new(big.Int).Set(g.q) }

// Bits returns the bit length of the modulus (the parameter k of the
// paper's cost analysis: each transmitted codeword is k bits).
func (g *Group) Bits() int { return g.bits }

// ElementLen returns the length in bytes of the fixed-width encoding of a
// group element, ceil(Bits/8).
func (g *Group) ElementLen() int { return (g.bits + 7) / 8 }

// String implements fmt.Stringer.
func (g *Group) String() string {
	return fmt.Sprintf("QR(p) with %d-bit safe prime", g.bits)
}

// Equal reports whether two groups share the same modulus.
func (g *Group) Equal(h *Group) bool {
	return h != nil && g.p.Cmp(h.p) == 0
}

// Contains reports whether x is a quadratic residue in [1, p-1], i.e. a
// member of the group.
func (g *Group) Contains(x *big.Int) bool {
	if x == nil || x.Sign() <= 0 || x.Cmp(g.p) >= 0 {
		return false
	}
	return big.Jacobi(x, g.p) == 1
}

// check returns ErrNotInGroup unless x ∈ QR(p).
func (g *Group) check(x *big.Int) error {
	if !g.Contains(x) {
		return ErrNotInGroup
	}
	return nil
}

// Mul returns x*y mod p.
func (g *Group) Mul(x, y *big.Int) *big.Int {
	z := new(big.Int).Mul(x, y)
	return z.Mod(z, g.p)
}

// Exp returns x^e mod p.  This is the commutative-encryption primitive
// f_e(x) of Example 1; its cost is the paper's C_e.  Every modulus size
// runs math/big's Exp, which is variable-time.
func (g *Group) Exp(x, e *big.Int) *big.Int {
	return new(big.Int).Exp(x, e, g.p)
}

// Inv returns the multiplicative inverse of x modulo p.
func (g *Group) Inv(x *big.Int) *big.Int {
	return new(big.Int).ModInverse(x, g.p)
}

// Square returns x^2 mod p.  Squaring maps Z_p* onto QR(p) two-to-one and
// is how package oracle lands hash outputs inside the group.
func (g *Group) Square(x *big.Int) *big.Int {
	z := new(big.Int).Mul(x, x)
	return z.Mod(z, g.p)
}

// InvExponent returns the exponent e' with f_{e'} = f_e^{-1}, i.e.
// e' = e^{-1} mod q (Property 3 of Definition 2).  It returns an error if
// e is not invertible modulo q (only e ≡ 0 mod q is excluded since q is
// prime).
func (g *Group) InvExponent(e *big.Int) (*big.Int, error) {
	inv := new(big.Int).ModInverse(e, g.q)
	if inv == nil {
		return nil, fmt.Errorf("group: exponent %v not invertible modulo group order", e)
	}
	return inv, nil
}

// RandomExponent samples a uniformly random exponent in [1, q-1] suitable
// as a commutative-encryption key (KeyF of Example 1).  The randomness is
// drawn from r, which defaults to crypto/rand.Reader when nil.
func (g *Group) RandomExponent(r io.Reader) (*big.Int, error) {
	if r == nil {
		r = rand.Reader
	}
	qMinus1 := new(big.Int).Sub(g.q, one)
	for {
		e, err := rand.Int(r, qMinus1)
		if err != nil {
			return nil, fmt.Errorf("group: sampling exponent: %w", err)
		}
		e.Add(e, one) // now uniform in [1, q-1]
		if e.Sign() > 0 {
			return e, nil
		}
	}
}

// RandomElement samples a uniformly random element of QR(p) by squaring a
// uniform element of Z_p*.  The randomness is drawn from r, which
// defaults to crypto/rand.Reader when nil.
func (g *Group) RandomElement(r io.Reader) (*big.Int, error) {
	if r == nil {
		r = rand.Reader
	}
	for {
		x, err := rand.Int(r, g.pMinus1)
		if err != nil {
			return nil, fmt.Errorf("group: sampling element: %w", err)
		}
		x.Add(x, one) // uniform in [1, p-1]
		return g.Square(x), nil
	}
}

// EncodeMessage embeds a message m ∈ [1, q] into QR(p).  Because
// p ≡ 3 (mod 4), -1 is a quadratic non-residue, so exactly one of m and
// p-m is a residue; EncodeMessage returns that one.  DecodeMessage
// inverts the embedding.  This realises the message encoding needed by
// the multiplicative payload cipher of Example 2.
func (g *Group) EncodeMessage(m *big.Int) (*big.Int, error) {
	if m == nil || m.Sign() <= 0 || m.Cmp(g.q) > 0 {
		return nil, ErrMessageRange
	}
	if big.Jacobi(m, g.p) == 1 {
		return new(big.Int).Set(m), nil
	}
	return new(big.Int).Sub(g.p, m), nil
}

// DecodeMessage inverts EncodeMessage: it maps a group element back to
// the unique preimage in [1, q].
func (g *Group) DecodeMessage(x *big.Int) (*big.Int, error) {
	if err := g.check(x); err != nil {
		return nil, err
	}
	if x.Cmp(g.q) <= 0 {
		return new(big.Int).Set(x), nil
	}
	return new(big.Int).Sub(g.p, x), nil
}

// Generator returns a generator of QR(p).  4 = 2^2 is always a quadratic
// residue; since the group has prime order q, every element other than 1
// generates it, and 4 ≠ 1 for every safe prime p > 3.
func (g *Group) Generator() *big.Int {
	return big.NewInt(4)
}
