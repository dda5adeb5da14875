package group

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"
	"strconv"
)

// This file defines the pluggable commutative-encryption domain: the
// Backend interface every protocol layer programs against, the opaque
// Scalar key type, and the wire-level backend registry.
//
// The paper's Section 6 cost model shows that C_e — one application of
// the commutative power function f_e — dominates every protocol cost.
// Example 1 instantiates f_e(x) = x^e mod p over QR(p), but nothing in
// Definition 2 requires that particular group: any cyclic group of
// prime order in which DDH is hard works, and elliptic-curve groups
// deliver the same security guarantee at a fraction of the per-
// operation cost (f_e(x) = e·H(x), a scalar multiplication over a
// hashed-to-curve point).  Backend abstracts exactly the operations the
// protocols need so the domain can be swapped without touching the
// protocol, wire, caching or observability layers.
//
// Canonical representation.  Every group element crosses package
// boundaries as a *big.Int holding the element's fixed-width canonical
// wire encoding interpreted as a big-endian integer.  For QR(p) that is
// the residue itself; for an elliptic-curve backend it is the 32-byte
// compressed-point encoding.  This keeps the wire codec, the sorted
// transcript order (numeric order == lexicographic order of the fixed-
// width encoding), the match-phase maps, and the S27 encrypted-set
// cache entirely backend-agnostic.

// ErrBadScalar reports a scalar outside the backend's key space.
var ErrBadScalar = errors.New("group: scalar outside key space")

// Code identifies a backend in the session handshake.  The safe-prime
// backend is code 0 on purpose: pre-backend headers carry no backend
// field, and decoding the absent field as zero makes a legacy peer and
// a current safe-prime peer agree byte-for-byte (see wire.Header).
type Code uint8

// Registered backend codes.
const (
	// CodeQR is the Example 1 domain: QR(p) under a safe prime, with
	// f_e(x) = x^e mod p.  The wire default.
	CodeQR Code = 0
	// CodeEC25519 is the Curve25519-based domain: the prime-order
	// subgroup of edwards25519, with f_e(x) = e·x over hashed-to-curve
	// points.
	CodeEC25519 Code = 1
)

// String implements fmt.Stringer.
func (c Code) String() string {
	switch c {
	case CodeQR:
		return "qr"
	case CodeEC25519:
		return "ec25519"
	default:
		return fmt.Sprintf("backend(%d)", uint8(c))
	}
}

// Scalar is a secret commutative-encryption exponent (the paper's e ∈
// KeyF) in whichever key space the originating backend uses: [1, q-1]
// for QR(p), [1, ℓ-1] for the Curve25519 subgroup.  Scalars are key
// material — the psilint secretlog analyzer rejects any path from a
// Scalar to a log line, error string, or trace annotation — and are
// immutable after creation; they must never be shared across backends.
type Scalar struct {
	v *big.Int
	// rep is the multiplier the EC backend's Apply reads: the 32
	// big-endian bytes of e's torsion-killing representative (see
	// newECScalar).  Unused by the QR backend.
	rep [32]byte
}

// newScalar wraps a value the backend has already validated.
func newScalar(v *big.Int) *Scalar { return &Scalar{v: v} }

// Big returns a copy of the raw scalar value.  It exists for key
// persistence in tools; protocol code never needs it (and psilint
// treats its result as secret-bearing, like Key.Exponent).
func (s *Scalar) Big() *big.Int { return new(big.Int).Set(s.v) }

// value returns the scalar's backing integer for backend-internal use.
// Callers must not mutate the result.
func (s *Scalar) value() *big.Int { return s.v }

// Backend is a commutative-encryption domain in the sense of the
// paper's Definition 2: a prime-order group with a random-oracle hash
// into it, a key space of invertible scalars, and the family
// f_e = Apply(e, ·) of commuting bijections.  Implementations must be
// safe for concurrent use.
type Backend interface {
	// Name is the backend's registry name ("qr1024", "ec25519", …).
	Name() string
	// Code is the backend's wire-level identifier for the handshake.
	Code() Code
	// Bits is the codeword width k of the paper's Section 6.1
	// communication analysis: the number of bits one transmitted
	// element occupies.
	Bits() int
	// ElementLen is the fixed byte width of one encoded element,
	// ceil(Bits/8).
	ElementLen() int
	// ParamDigest identifies the concrete group parameters (modulus or
	// curve) for the handshake's group check.
	ParamDigest() [32]byte
	// Contains reports whether x is a canonical encoding of a group
	// element usable with Apply.
	Contains(x *big.Int) bool
	// HashInputLen is the number of uniform bytes MapToElement consumes
	// per evaluation.  Package oracle produces them with a domain-
	// separated XOF expansion.
	HashInputLen() int
	// MapToElement maps HashInputLen uniform bytes to a group element
	// that is statistically close to uniform — the backend half of the
	// Section 3.2.2 random oracle h.
	MapToElement(uniform []byte) *big.Int
	// RandomScalar draws a uniform secret scalar from the key space,
	// reading randomness from r (crypto/rand when nil).
	RandomScalar(r io.Reader) (*Scalar, error)
	// ScalarFromBig validates an explicit exponent and wraps it; used by
	// deterministic tests and key persistence.
	ScalarFromBig(e *big.Int) (*Scalar, error)
	// InvertScalar returns e' with Apply(e', Apply(e, x)) = x — Property
	// 3 of Definition 2.
	InvertScalar(e *Scalar) (*Scalar, error)
	// Apply computes f_e(x): a modular exponentiation for QR(p), a
	// scalar multiplication for an elliptic-curve backend.  Its cost is
	// the paper's C_e.  x must satisfy Contains: for any other x, Apply
	// returns no element and an error wrapping ErrNotInGroup — the only
	// membership test package core gives a received vector it encrypts
	// in full (TestApplyRejectsWhatContainsRejects).
	Apply(e *Scalar, x *big.Int) (*big.Int, error)
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

// Backends returns the named backends available to the CLIs'
// -group flags: every builtin safe-prime size as "qr<bits>" plus
// "ec25519".  The default protocol backend is "qr1024" (the paper's
// parameters); "ec25519" offers ≥ the same security at a fraction of
// the C_e cost.
func Backends() []string {
	names := []string{"ec25519"}
	for _, s := range BuiltinSizes() {
		names = append(names, fmt.Sprintf("qr%d", int(s)))
	}
	sort.Strings(names)
	return names
}

// ByName resolves a backend registry name: "ec25519", or "qr<bits>"
// for any builtin safe-prime size ("qr1024", "qr256", …).  The bare
// name "qr" selects the default 1024-bit group.
func ByName(name string) (Backend, error) {
	switch name {
	case "ec25519":
		return EC25519(), nil
	case "qr", "":
		return Default(), nil
	}
	var bits int
	if _, err := fmt.Sscanf(name, "qr%d", &bits); err == nil {
		g, err := Builtin(Size(bits))
		if err != nil {
			return nil, fmt.Errorf("group: backend %q: %w", name, err)
		}
		return g, nil
	}
	return nil, fmt.Errorf("group: unknown backend %q (have %v)", name, Backends())
}

// ByFlag resolves a CLI -group flag value: a backend registry name as
// ByName accepts, or — for compatibility with the flag's earlier
// numeric form — a bare bit count ("1024") selecting the builtin
// safe-prime group of that size.
func ByFlag(v string) (Backend, error) {
	if _, err := strconv.Atoi(v); err == nil {
		return ByName("qr" + v)
	}
	return ByName(v)
}
