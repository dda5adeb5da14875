// Package oracle implements the hash function h : V → DomF of
// Section 3.2.2 of the paper.
//
// The protocols never encrypt attribute values directly: they encrypt
// h(v), where h is modelled in the security proofs as a random oracle
// into the commutative-encryption domain.  This package owns the
// backend-independent half of h — SHA-256 in counter mode (an
// extendable-output construction) expanding the value to the backend's
// uniform-byte budget — and delegates the landing inside the group to
// group.Backend.MapToElement.  For the safe-prime backend that is
// reduce-mod-p, adjust away from 0, and square (squaring maps Z_p*
// exactly two-to-one onto QR(p)); for the Curve25519 backend it is
// Elligator2 hash-to-curve with cofactor clearing.  Either way h(v) is
// statistically close to uniform on the group, which is what Lemma 2's
// use of the random-oracle model requires.
//
// The package also reproduces the collision analysis of Section 3.2.2:
// the closed-form birthday bound Pr[collision] ≈ 1 − exp(−n(n−1)/2N) and
// the sort-based collision detection the paper prescribes running at the
// start of each protocol.
package oracle

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"sort"

	"minshare/internal/group"
	"minshare/internal/obs"
)

// Oracle hashes application values into a fixed commutative-encryption
// domain.  It is stateless and safe for concurrent use.
type Oracle struct {
	b group.Backend
	// domainSep is mixed into every hash so that distinct protocol
	// deployments (or test fixtures) can use independent oracles over the
	// same group.
	domainSep []byte
	// counters, when non-nil, receives one C_h tick per oracle
	// evaluation (see Observed).
	counters *obs.Counters
}

// New returns an Oracle into b with an empty domain-separation tag.
func New(b group.Backend) *Oracle {
	return NewWithDomain(b, "")
}

// NewWithDomain returns an Oracle into b whose outputs are independent of
// any oracle with a different tag.
func NewWithDomain(b group.Backend, tag string) *Oracle {
	return &Oracle{b: b, domainSep: []byte(tag)}
}

// Backend returns the target domain.
func (o *Oracle) Backend() group.Backend { return o.b }

// Observed returns a copy of the oracle whose evaluations are counted
// into c (one C_h per Hash, one per rejection-sampling attempt in
// HashRejection).  A nil c returns o unchanged.  The copy shares the
// group and domain tag, so outputs are identical to the original's.
func (o *Oracle) Observed(c *obs.Counters) *Oracle {
	if c == nil {
		return o
	}
	cp := *o
	cp.counters = c
	return &cp
}

// Hash maps an arbitrary byte string to a group element of the target
// domain.  Equal inputs map to equal outputs; the distribution over
// random inputs is statistically close to uniform on the group.
//
// The expansion is deliberately backend-independent: SHA-256 in counter
// mode produces HashInputLen uniform bytes (2·ElementLen for QR(p),
// keeping the mod-p reduction bias at most 2^-|p|; 64 bytes for
// Curve25519), and MapToElement lands them in the group.  For the
// safe-prime backend the composition is byte-for-byte the construction
// this package always used, so existing transcripts and golden vectors
// are unchanged.
func (o *Oracle) Hash(v []byte) *big.Int {
	if o.counters != nil {
		o.counters.AddOracleHashes(1)
	}
	return o.b.MapToElement(expand(o.domainSep, v, o.b.HashInputLen()))
}

// expand returns outLen bytes of SHA-256 in counter mode over v:
// SHA-256(prefix ‖ ctr ‖ v) for ctr = 0, 1, … as big-endian uint32.  The
// block input is assembled once (on the stack for short values) and
// only its counter rewritten; the output is the one allocation.
func expand(prefix, v []byte, outLen int) []byte {
	var stack [128]byte
	msg := append(stack[:0], prefix...)
	ctrAt := len(msg)
	msg = append(append(msg, 0, 0, 0, 0), v...)
	out := make([]byte, 0, (outLen+sha256.Size-1)/sha256.Size*sha256.Size)
	for ctr := uint32(0); len(out) < outLen; ctr++ {
		binary.BigEndian.PutUint32(msg[ctrAt:], ctr)
		block := sha256.Sum256(msg)
		out = append(out, block[:]...)
	}
	return out[:outLen]
}

// HashRejection is the alternative hash-to-group construction the
// DESIGN.md ablation compares against: instead of squaring (which maps
// into QR(p) in one step), it re-expands with an incremented counter
// until the candidate is already a quadratic residue — on average two
// Legendre-symbol evaluations per value.  Same random-oracle guarantees,
// measurably slower; the protocols use Hash.
//
// The construction is specific to the safe-prime domain: a uniform
// integer is a quadratic residue with probability ~1/2, so rejection
// terminates quickly, whereas a uniform integer is a valid curve-point
// encoding with negligible probability.  On any non-QR backend
// HashRejection therefore falls back to Hash (the ablation only ever
// runs on QR groups).
func (o *Oracle) HashRejection(v []byte) *big.Int {
	g, ok := o.b.(*group.Group)
	if !ok {
		return o.Hash(v)
	}
	outLen := 2 * g.ElementLen()
	pMinus1 := new(big.Int).Sub(g.P(), big.NewInt(1))
	for attempt := uint32(0); ; attempt++ {
		if o.counters != nil {
			o.counters.AddOracleHashes(1)
		}
		prefix := binary.BigEndian.AppendUint32(append(append([]byte(nil), o.domainSep...), 'R', 'J'), attempt)
		x := new(big.Int).SetBytes(expand(prefix, v, outLen))
		x.Mod(x, pMinus1)
		x.Add(x, big.NewInt(1))
		if g.Contains(x) {
			return x
		}
	}
}

// HashString is Hash on the UTF-8 bytes of s.
func (o *Oracle) HashString(s string) *big.Int { return o.Hash([]byte(s)) }

// HashUint64 is Hash on the big-endian encoding of u; it is the hash used
// for integer keys such as the medical application's person identifiers.
func (o *Oracle) HashUint64(u uint64) *big.Int {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], u)
	return o.Hash(b[:])
}

// HashAll hashes each value of vs in order.
func (o *Oracle) HashAll(vs [][]byte) []*big.Int {
	out := make([]*big.Int, len(vs))
	for i, v := range vs {
		out[i] = o.Hash(v)
	}
	return out
}

// Collision describes two distinct input values with equal hashes.
type Collision struct {
	I, J int // indices into the input slice, I < J
}

// DetectCollisions returns all pairwise hash collisions among vs,
// implementing the check Section 3.2.2 prescribes "at the start of each
// protocol by sorting the hashes".  Distinct indices holding *equal*
// values are not collisions (they are duplicates, which the multiset
// protocols handle separately); only distinct values with equal hashes
// are reported.
func DetectCollisions(o *Oracle, vs [][]byte) []Collision {
	return CollisionsAmong(vs, o.HashAll(vs))
}

// CollisionsAmong is DetectCollisions over hashes the caller has already
// computed — hashes[i] must be h(vs[i]) — so a protocol run that needs
// the hashes anyway evaluates the oracle once per value, the C_h the
// Section 6.1 census charges.
func CollisionsAmong(vs [][]byte, hashes []*big.Int) []Collision {
	type entry struct {
		hash string
		idx  int
	}
	entries := make([]entry, len(vs))
	for i, h := range hashes {
		entries[i] = entry{hash: string(h.Bytes()), idx: i}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].hash != entries[j].hash {
			return entries[i].hash < entries[j].hash
		}
		return entries[i].idx < entries[j].idx
	})
	var out []Collision
	for i := 1; i < len(entries); i++ {
		if entries[i].hash != entries[i-1].hash {
			continue
		}
		a, b := entries[i-1].idx, entries[i].idx
		if string(vs[a]) == string(vs[b]) {
			continue // duplicate value, not a collision
		}
		if a > b {
			a, b = b, a
		}
		out = append(out, Collision{I: a, J: b})
	}
	return out
}

// CollisionProbability returns the birthday bound of Section 3.2.2,
//
//	Pr[collision] ≈ 1 − exp(−n(n−1) / 2N),
//
// for n hashed values in a domain of size N = 2^(bits-1) (half of the
// 2^bits values are quadratic residues, as the paper notes for its
// "1024-bit hash values, half of which are quadratic residues" example).
// The result is returned as a base-10 order of magnitude because the
// probability underflows float64 for realistic parameters (the paper's
// example is 10^-295).
func CollisionProbability(n uint64, bits int) (prob float64, log10 float64) {
	// n(n-1)/2N computed in floats via logarithms:
	// log10(x) = log10(n) + log10(n-1) - log10(2) - (bits-1)*log10(2)
	if n < 2 {
		return 0, math.Inf(-1)
	}
	l10 := math.Log10(float64(n)) + math.Log10(float64(n-1)) -
		float64(bits)*math.Log10(2) // 2N = 2*2^(bits-1) = 2^bits
	// For tiny x, 1 - exp(-x) ≈ x, so the order of magnitude of the
	// probability equals that of x itself.
	if l10 < -15 {
		return math.Pow(10, l10), l10
	}
	x := math.Pow(10, l10)
	p := 1 - math.Exp(-x)
	if p <= 0 {
		return x, l10
	}
	return p, math.Log10(p)
}

// ExactCollisionProbability returns 1 − Π_{i=1}^{n−1} (N−i)/N, the exact
// expression from Section 3.2.2, for small n and N where it is
// computable.  It is used in tests to validate the closed-form bound.
func ExactCollisionProbability(n, domain uint64) (float64, error) {
	if domain == 0 {
		return 0, fmt.Errorf("oracle: empty domain")
	}
	if n > domain {
		return 1, nil // pigeonhole
	}
	prod := 1.0
	for i := uint64(1); i < n; i++ {
		prod *= float64(domain-i) / float64(domain)
	}
	return 1 - prod, nil
}
