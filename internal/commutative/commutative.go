// Package commutative implements the commutative encryption primitive of
// Section 3.2.1 of the paper (Definition 2) together with decorators used
// by the cost-analysis experiments.
//
// A commutative encryption F is a family of bijections f_e over a domain
// DomF such that f_e ∘ f_e' = f_e' ∘ f_e for all keys e, e', each f_e is
// invertible in polynomial time given e, and — under the Decisional
// Diffie-Hellman assumption — seeing (x, f_e(x)) does not help encrypting
// or decrypting any independent value (Property 4).
//
// The concrete scheme, Example 1 of the paper, is the Pohlig-Hellman
// power function over quadratic residues modulo a safe prime p:
//
//	f_e(x) = x^e mod p,   e ∈ [1, q-1],  q = (p-1)/2
//
// Powers commute, each f_e is a bijection on QR(p) with inverse
// f_{e^{-1} mod q}, and DDH over QR(p) gives Property 4.
//
// Nothing in Definition 2 requires that particular group, and this
// package is written against group.Backend rather than the safe-prime
// group: PowerFn over the Curve25519 backend is the same scheme with
// f_e(x) = e·x over hashed-to-curve points (a scalar multiplication
// instead of a modular exponentiation), at the same DDH security for a
// fraction of the C_e cost.
package commutative

import (
	"errors"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"minshare/internal/group"
)

// ErrNilKey is returned when an operation receives a nil key.
var ErrNilKey = errors.New("commutative: nil key")

// Key is a secret commutative-encryption key: a scalar in the key space
// of the backend that produced it ([1, q-1] for QR(p), [1, ℓ-1] for the
// Curve25519 subgroup).  Keys are produced by a Scheme and must never be
// shared between backends or between groups of different parameters.
type Key struct {
	e *group.Scalar

	// Decryption inverse e⁻¹ mod the key-space order, computed once on
	// first Decrypt.  A bulk decryptSet of n elements would otherwise
	// pay n modular inversions for the same exponent.
	invOnce sync.Once
	inv     *group.Scalar
	invErr  error
}

// inverse returns the decryption scalar for backend b, caching it after
// the first call.  Safe for concurrent use.
func (k *Key) inverse(b group.Backend) (*group.Scalar, error) {
	k.invOnce.Do(func() {
		k.inv, k.invErr = b.InvertScalar(k.e)
	})
	return k.inv, k.invErr
}

// Exponent returns a copy of the key's secret scalar value.  It is
// exposed for serialization in tools; protocol code never needs it.
func (k *Key) Exponent() *big.Int { return k.e.Big() }

// Scheme is a commutative encryption over a fixed domain, in the sense
// of Definition 2 of the paper.  Implementations must be safe for
// concurrent use.
type Scheme interface {
	// Backend returns the underlying domain DomF (QR(p), or the
	// Curve25519 prime-order subgroup).
	Backend() group.Backend
	// GenerateKey draws a fresh uniform key from KeyF.  The randomness
	// source defaults to crypto/rand when nil.
	GenerateKey(r io.Reader) (*Key, error)
	// Encrypt computes f_e(x).  x must be a group element: for any x
	// that Backend().Contains rejects, Encrypt must return an error
	// wrapping group.ErrNotInGroup and no result.  Package core relies
	// on it — a received vector that is encrypted in full is not tested
	// for membership a second time.
	Encrypt(k *Key, x *big.Int) (*big.Int, error)
	// Decrypt computes f_e^{-1}(y) (Property 3 of Definition 2), with
	// the same obligation towards a y outside the group as Encrypt.
	Decrypt(k *Key, y *big.Int) (*big.Int, error)
}

// PowerFn is the commutative-encryption scheme of Example 1 generalized
// over a backend: f_e = Apply(e, ·), the Pohlig-Hellman power function
// when the backend is QR(p) and hashed-to-curve scalar multiplication
// when it is the Curve25519 subgroup.
type PowerFn struct {
	b group.Backend
}

// NewPowerFn returns the scheme over backend b.
func NewPowerFn(b group.Backend) *PowerFn {
	return &PowerFn{b: b}
}

// Backend implements Scheme.
func (s *PowerFn) Backend() group.Backend { return s.b }

// GenerateKey implements Scheme: a uniform scalar from the backend's
// key space.
func (s *PowerFn) GenerateKey(r io.Reader) (*Key, error) {
	e, err := s.b.RandomScalar(r)
	if err != nil {
		return nil, err
	}
	return &Key{e: e}, nil
}

// KeyFromExponent wraps an explicit exponent as a Key, validating that
// it lies in the backend's key space.  Used by deterministic tests and
// key persistence.
func (s *PowerFn) KeyFromExponent(e *big.Int) (*Key, error) {
	sc, err := s.b.ScalarFromBig(e)
	if err != nil {
		return nil, errors.New("commutative: exponent outside key space")
	}
	return &Key{e: sc}, nil
}

// Encrypt implements Scheme: f_e(x), one C_e operation.
func (s *PowerFn) Encrypt(k *Key, x *big.Int) (*big.Int, error) {
	if k == nil || k.e == nil {
		return nil, ErrNilKey
	}
	return s.b.Apply(k.e, x)
}

// Decrypt implements Scheme: f_e^{-1}(y) = Apply(e⁻¹, y) (Property 3).
func (s *PowerFn) Decrypt(k *Key, y *big.Int) (*big.Int, error) {
	if k == nil || k.e == nil {
		return nil, ErrNilKey
	}
	inv, err := k.inverse(s.b)
	if err != nil {
		return nil, err
	}
	return s.b.Apply(inv, y)
}

// Counting wraps a Scheme and counts encryption and decryption calls.
// The experiment harness uses it to verify the operation-count formulas
// of Section 6.1 exactly (each call costs one C_e).
type Counting struct {
	inner Scheme

	encrypts atomic.Int64
	decrypts atomic.Int64
	keygens  atomic.Int64
}

// NewCounting wraps inner with operation counters.
func NewCounting(inner Scheme) *Counting {
	return &Counting{inner: inner}
}

// Backend implements Scheme.
func (c *Counting) Backend() group.Backend { return c.inner.Backend() }

// GenerateKey implements Scheme.
func (c *Counting) GenerateKey(r io.Reader) (*Key, error) {
	c.keygens.Add(1)
	return c.inner.GenerateKey(r)
}

// Encrypt implements Scheme.
func (c *Counting) Encrypt(k *Key, x *big.Int) (*big.Int, error) {
	c.encrypts.Add(1)
	return c.inner.Encrypt(k, x)
}

// Decrypt implements Scheme.
func (c *Counting) Decrypt(k *Key, y *big.Int) (*big.Int, error) {
	c.decrypts.Add(1)
	return c.inner.Decrypt(k, y)
}

// Encrypts returns the number of Encrypt calls so far.
func (c *Counting) Encrypts() int64 { return c.encrypts.Load() }

// Decrypts returns the number of Decrypt calls so far.
func (c *Counting) Decrypts() int64 { return c.decrypts.Load() }

// Ops returns encrypts + decrypts: the total number of C_e operations in
// the sense of the Section 6.1 cost model.
func (c *Counting) Ops() int64 { return c.Encrypts() + c.Decrypts() }

// Reset zeroes all counters.
func (c *Counting) Reset() {
	c.encrypts.Store(0)
	c.decrypts.Store(0)
	c.keygens.Store(0)
}
