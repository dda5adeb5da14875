// Package core implements the paper's four minimal-information-sharing
// protocols — intersection (Section 3.3), equijoin (Section 4.3),
// intersection size (Section 5.1.1) and equijoin size (Section 5.2) —
// plus the insecure hash-exchange baseline of Section 3.1 and the
// third-party intersection-size variant of Figure 2 used by the medical
// research application.
//
// # Roles
//
// Following the paper, party S is the sender and party R the receiver:
// R obtains the query answer, S obtains only |V_R| (and, for the
// multiset join-size protocol, the distribution of duplicates in
// T_R.A).  Each protocol is exposed as a pair of functions, one per
// role, that drive one endpoint of a transport.Conn; running both ends —
// in two goroutines over a transport.Pipe, or in two processes over TCP —
// executes the protocol.
//
// # Structure
//
// The paper defines the protocols as small deltas of one another, and
// the package is one engine written the same way (engine.go): a single
// receiver body and a single sender body consult a protocol descriptor
// — wire protocol, reply aligned or re-sorted, ext payloads or not —
// where the protocols differ, and each protocol's own file holds only
// its result type, its input preparation and its match rule.  The
// execution modes are orthogonal to the protocols and each exists once:
// legacy or chunked vectors (stream.go), a cold, cache-warm or
// delta-upgraded sender prelude (cache.go, delta.go), shard-parallel
// execution of any role (shard.go), and the standing-query envelope
// around the intersection and the equijoin (standing.go).
//
// # Inputs
//
// Values are opaque byte strings.  The set protocols (intersection,
// equijoin, intersection size) operate on the *set* of distinct values,
// as the paper defines V_S and V_R ("the set of values (without
// duplicates)"); duplicate inputs are removed before the run.  The
// equijoin-size protocol deliberately keeps multisets, since the
// distribution of duplicates is part of its (leaky) contract.
//
// # Guarantees
//
// Assuming both parties are semi-honest and the underlying commutative
// encryption satisfies Definition 2, each protocol reveals exactly what
// Section 2.2.1 of the paper states and nothing else; package-level
// tests verify the structural consequences (exact message counts and
// sizes, sorted transcript order, dictionary-attack resistance) and
// package leakage quantifies the equijoin-size leak.
package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"sort"
	"sync"
	"time"

	"minshare/internal/commutative"
	"minshare/internal/group"
	"minshare/internal/kenc"
	"minshare/internal/obs"
	"minshare/internal/oracle"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// Common errors.
var (
	// ErrBackendMismatch reports that the peer announced a different
	// commutative-encryption backend (e.g. safe-prime QR vs Curve25519).
	// Elements of different backends are mutually meaningless, so the
	// handshake fails before any encrypted value is exchanged.
	ErrBackendMismatch = errors.New("core: peer uses a different group backend")
	// ErrGroupMismatch reports that the peer announced a different group.
	ErrGroupMismatch = errors.New("core: peer uses a different group")
	// ErrProtocolMismatch reports that the peer is running a different protocol.
	ErrProtocolMismatch = errors.New("core: peer runs a different protocol")
	// ErrShardMismatch reports that the peer negotiated a different shard
	// count.  A k-sharded session partitions every value by a shared hash
	// prefix, so differently-sharded parties would compare disjoint
	// partitions; the handshake fails before any encrypted value moves.
	ErrShardMismatch = errors.New("core: peer uses a different shard count")
	// ErrPeerFailure wraps an error message received from the peer.
	ErrPeerFailure = errors.New("core: peer reported failure")
	// ErrHashCollision reports a hash collision inside a party's own set,
	// detected by the Section 3.2.2 sort check before any value leaves
	// the machine.
	ErrHashCollision = errors.New("core: hash collision detected in local set")
	// ErrMalformedReply reports a peer message inconsistent with the
	// protocol state (wrong cardinality, non-group elements, unsorted
	// vectors where sorting is mandated).
	ErrMalformedReply = errors.New("core: malformed peer reply")
)

// Config carries the shared cryptographic setup for one protocol run.
// Both parties must use the same Group; everything else is private.
type Config struct {
	// Group is the commutative-encryption domain: a safe-prime QR group
	// (*group.Group) or the Curve25519 backend (group.EC25519()).
	// Defaults to group.Default() (the 1024-bit safe-prime group) when
	// nil.  Both parties must configure the same backend and parameters;
	// the handshake verifies this and fails with ErrBackendMismatch /
	// ErrGroupMismatch otherwise.
	Group group.Backend
	// Scheme is the commutative encryption.  Defaults to the
	// Pohlig-Hellman power function over Group.  Tests inject a
	// commutative.Counting wrapper here to audit C_e operation counts.
	Scheme commutative.Scheme
	// Oracle is the hash h : V → DomF.  Defaults to oracle.New(Group).
	Oracle *oracle.Oracle
	// Cipher encrypts ext(v) payloads in the equijoin protocol.
	// Defaults to kenc.NewHybrid(Group).
	Cipher kenc.Cipher
	// Rand is the randomness source for key generation; nil means
	// crypto/rand.Reader.
	Rand io.Reader
	// Parallelism bounds the worker pool for bulk exponentiation (the
	// paper's parameter P, Section 6.2).  Zero selects GOMAXPROCS.
	Parallelism int
	// ChunkSize, when positive, streams bulk vectors in chunks of that
	// many entries so exponentiation, transfer, and the peer's
	// re-encryption overlap as a pipeline.  Zero sends each vector as a
	// single legacy frame, reproducing the pre-streaming wire
	// transcript byte-for-byte.  Receivers accept either encoding
	// regardless of this setting, so the two modes interoperate.
	ChunkSize int
	// SetCache, when non-nil, lets the sender-side protocols reuse the
	// encrypted own-set state from an earlier run with the same
	// CacheKey: a hit skips the key generation, oracle hashing, and
	// bulk-exponentiation phase entirely (both legacy and chunked wire
	// modes) and jumps straight to the send/re-encrypt phases; a miss
	// runs the full phase and populates the cache.  Receiver-side
	// protocols ignore it.
	SetCache *SenderSetCache
	// CacheKey identifies this run's slot in SetCache.  It must name the
	// peer (SetCache never reuses an exponent across different
	// CacheKey.PeerHost values — see the SenderSetCache doc for why) and
	// carry the current DataVersion; a zero key with a non-nil SetCache
	// is allowed but shares one slot, so only single-peer callers should
	// use it.
	CacheKey SetCacheKey
	// DeltaSource, when non-nil alongside SetCache, lets the sender-side
	// protocols upgrade a stale cached entry in place: a cache miss first
	// looks for an entry of the same slot at an older version, asks the
	// source how the set changed since, and re-encrypts only the churn
	// under the entry's pinned key (commutative.CachedSet.ApplyDelta) —
	// O(churn) instead of the O(|V|) rebuild.  It also feeds the
	// standing-query sender.  Receiver-side protocols ignore it.
	DeltaSource DeltaSource
	// DeltaChurnMax bounds the upgrade path as a fraction of the current
	// set size: a delta touching more than DeltaChurnMax·|V| values falls
	// back to the full rebuild (past that point the bulk pipeline wins).
	// Zero selects DefaultDeltaChurnMax; negative disables upgrades.
	DeltaChurnMax float64
	// DataVersion is this party's monotonic data version
	// (reldb.Table.Version for a served table), announced in the
	// handshake header so the peer can detect a stale counterpart, and
	// compared against CacheKey.Version by convention.  Zero means
	// unversioned.
	DataVersion uint64
	// Shards, when > 1, runs the protocol shard-parallel: both parties
	// partition their values into Shards buckets by a shared hash prefix
	// of h(v) and run one independent sub-protocol per bucket, all
	// multiplexed over the single conn (transport.Mux) and merged by a
	// coordinator that preserves the unsharded result semantics.  The
	// count is negotiated in the handshake; both parties must configure
	// the same value or the handshake fails with ErrShardMismatch.
	// 0 or 1 runs the classic single-pipeline protocol, byte-identical
	// on the wire to releases without sharding.  Values above
	// transport.MaxShards are rejected.  The only additional information
	// revealed is each party's per-shard set sizes (the partition split;
	// see leakage.ShardSplit).
	Shards int
}

// normalized returns a copy of c with every nil field defaulted.
func (c Config) normalized() Config {
	if c.Group == nil {
		c.Group = group.Default()
	}
	if c.Scheme == nil {
		c.Scheme = commutative.NewPowerFn(c.Group)
	}
	if c.Oracle == nil {
		c.Oracle = oracle.New(c.Group)
	}
	if c.Cipher == nil {
		c.Cipher = kenc.NewHybrid(c.Group)
	}
	if c.Rand == nil {
		c.Rand = rand.Reader
	}
	if c.DeltaChurnMax == 0 {
		c.DeltaChurnMax = DefaultDeltaChurnMax
	}
	return c
}

// session couples a transport connection with the codec and config for
// one protocol run.  When the context carries an obs.Session, the
// config's scheme and oracle are wrapped so every costed primitive —
// modular exponentiation, oracle hash, frame, byte — is counted against
// that session (and, through the counter chain, the process globals),
// and transport stalls and chunk-pipeline latencies feed the session's
// histograms; without one, counters and lat stay nil and the
// instrumentation is inert.
type session struct {
	cfg      Config
	conn     transport.Conn
	codec    *wire.Codec
	counters *obs.Counters
	osess    *obs.Session
	lat      *obs.Latencies
	// peerVersion is the peer's announced DataVersion, recorded by
	// handshake and surfaced on receiver results.
	peerVersion uint64
}

func newSession(ctx context.Context, cfg Config, conn transport.Conn) *session {
	cfg = cfg.normalized()
	s := &session{cfg: cfg, conn: conn, codec: wire.NewCodec(cfg.Group)}
	if o := obs.SessionFrom(ctx); o != nil {
		s.osess = o
		s.lat = o.Latencies()
		s.counters = o.Counters()
		s.cfg.Scheme = commutative.Observed(s.cfg.Scheme, s.counters)
		s.cfg.Oracle = s.cfg.Oracle.Observed(s.counters)
	}
	return s
}

// send encodes and transmits one message.
func (s *session) send(ctx context.Context, m wire.Message) error {
	data, err := s.codec.Encode(m)
	if err != nil {
		return fmt.Errorf("core: encoding %v: %w", m.Kind(), err)
	}
	var start time.Time
	if s.lat != nil {
		start = time.Now()
	}
	if err := s.conn.Send(ctx, data); err != nil {
		return fmt.Errorf("core: sending %v: %w", m.Kind(), err)
	}
	if s.lat != nil {
		s.lat.Record(obs.LatTransportSend, time.Since(start))
	}
	if s.counters != nil {
		s.counters.AddFrameSent(int64(len(data)), int64(len(data))+transport.FrameOverhead)
	}
	return nil
}

// recvAny receives one message whose kind must be among want (several
// where a vector may arrive as a legacy one-shot frame or as the opening
// of a stream).  A wire.ErrorMsg from the peer is converted into
// ErrPeerFailure.
func (s *session) recvAny(ctx context.Context, want ...wire.Kind) (wire.Message, error) {
	var start time.Time
	if s.lat != nil {
		start = time.Now()
	}
	data, err := s.conn.Recv(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: receiving %v: %w", want[0], err)
	}
	if s.lat != nil {
		s.lat.Record(obs.LatTransportRecv, time.Since(start))
	}
	if s.counters != nil {
		s.counters.AddFrameRecv(int64(len(data)), int64(len(data))+transport.FrameOverhead)
	}
	m, err := s.codec.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformedReply, err)
	}
	if em, ok := m.(wire.ErrorMsg); ok {
		return nil, fmt.Errorf("%w: %s", ErrPeerFailure, em.Text)
	}
	for _, k := range want {
		if m.Kind() == k {
			return m, nil
		}
	}
	if len(want) == 1 {
		return nil, fmt.Errorf("%w: got %v, want %v", wire.ErrKindMismatch, m.Kind(), want[0])
	}
	return nil, fmt.Errorf("%w: got %v, want one of %v", wire.ErrKindMismatch, m.Kind(), want)
}

// abort best-effort notifies the peer of a fatal local error and returns
// the original error.
func (s *session) abort(ctx context.Context, err error) error {
	_ = s.send(ctx, wire.ErrorMsg{Text: err.Error()})
	return err
}

// handshake exchanges headers.  Each party announces its set size — the
// paper's additional information I — and both verify they agree on the
// protocol and the group.  sendFirst breaks the symmetric deadlock over
// strictly alternating transports: the receiver R always sends first.
//
// The header also carries the trace context.  The initiator (sendFirst)
// stamps its own session's trace ID and root span; the responder adopts
// whatever nonzero trace identity arrives — switching its session onto
// the initiator's trace — and only then stamps its header, so its echo
// announces the adopted trace ID back.  The initiator's adopt of that
// echo is a no-op (same ID).  A peer without trace support sends a zero
// trace ID, which adopt ignores, so mixed deployments run untraced but
// uninterrupted.
func (s *session) handshake(ctx context.Context, proto wire.Protocol, mySize int, sendFirst bool) (peerSize int, err error) {
	my := wire.Header{
		Protocol:    proto,
		GroupBits:   uint32(s.cfg.Group.Bits()),
		GroupDigest: wire.GroupDigest(s.cfg.Group),
		SetSize:     uint64(mySize),
		SetVersion:  s.cfg.DataVersion,
		Backend:     s.cfg.Group.Code(),
	}
	if s.cfg.Shards > 1 {
		my.Shards = uint8(s.cfg.Shards)
	}
	stamp := func() {
		if s.osess != nil {
			my.TraceID = s.osess.TraceID()
			my.SpanID = uint64(s.osess.RootSpanID())
		}
	}
	adopt := func(peer wire.Header) {
		if s.osess != nil {
			s.osess.AdoptRemoteTrace(obs.TraceID(peer.TraceID), obs.SpanID(peer.SpanID))
		}
	}
	var peer wire.Header
	if sendFirst {
		stamp()
		if err := s.send(ctx, my); err != nil {
			return 0, err
		}
		m, err := s.recvAny(ctx, wire.KindHeader)
		if err != nil {
			return 0, err
		}
		peer = m.(wire.Header)
		adopt(peer)
	} else {
		m, err := s.recvAny(ctx, wire.KindHeader)
		if err != nil {
			return 0, err
		}
		peer = m.(wire.Header)
		adopt(peer)
		stamp()
		if err := s.send(ctx, my); err != nil {
			return 0, err
		}
	}
	if peer.Protocol != proto {
		return 0, s.abort(ctx, fmt.Errorf("%w: peer=%v local=%v", ErrProtocolMismatch, peer.Protocol, proto))
	}
	// Backend first: a cross-backend pairing must fail with the explicit
	// backend error, not the generic parameter mismatch (the bits/digest
	// comparison below would also fire, less informatively).
	if peer.Backend != my.Backend {
		return 0, s.abort(ctx, fmt.Errorf("%w: peer=%v local=%v", ErrBackendMismatch, peer.Backend, my.Backend))
	}
	if peer.GroupBits != my.GroupBits || peer.GroupDigest != my.GroupDigest {
		return 0, s.abort(ctx, ErrGroupMismatch)
	}
	if normShards(peer.Shards) != normShards(my.Shards) {
		return 0, s.abort(ctx, fmt.Errorf("%w: peer=%d local=%d", ErrShardMismatch, normShards(peer.Shards), normShards(my.Shards)))
	}
	s.peerVersion = peer.SetVersion
	return int(peer.SetSize), nil
}

// normShards folds the two encodings of "unsharded" — absent (0) and
// explicit 1 — into one value for the handshake comparison.  The wire
// layer never produces an explicit 1 (wire.ErrBadShards), but config
// values arrive unnormalized.
func normShards(k uint8) uint8 {
	if k <= 1 {
		return 0
	}
	return k
}

// checkElems validates a complete received element vector that is only
// matched, never fed to the Scheme: expected cardinality, group
// membership of every entry, and — when requireSorted — the
// lexicographic order the protocols mandate (footnote 3 of the paper:
// unsorted replies leak alignment information).
func (s *session) checkElems(ctx context.Context, elems []*big.Int, wantLen int, what string, requireSorted bool) error {
	if wantLen >= 0 && len(elems) != wantLen {
		return fmt.Errorf("%w: %s has %d elements, want %d", ErrMalformedReply, what, len(elems), wantLen)
	}
	return s.checkChunk(ctx, elems, nil, 0, what, requireSorted, true)
}

// parallelCheckMin is the vector length below which checkChunk stays
// serial: a membership test (Jacobi symbol or curve-point decode) costs
// ~µs, so goroutine fan-out only pays for itself on larger runs.
const parallelCheckMin = 32

// checkChunk validates one contiguous run of a received vector: when
// requireSorted, ascending order including across the boundary from
// prev, the last element of the preceding run (nil at the start of a
// vector), and, when members, group membership (a Jacobi-symbol test
// or curve-point decode per entry, depending on the backend).
//
// Membership is tested once, by the first operation that consumes the
// element.  A vector whose every element goes through Scheme.Encrypt or
// Scheme.Decrypt — which reject exactly what Contains rejects — is
// received with members false and its non-members surface there, as
// ErrMalformedReply through notMember; only a vector that is merely
// matched against others is tested here.
//
// The membership tests shard across Config.Parallelism workers with the
// order check fused into the same pass; off is the run's offset within
// the full vector, used for error indices.  On concurrent failures the
// smallest index wins, keeping errors deterministic.  Workers observe
// ctx so a cancelled session stops burning Jacobi symbols mid-vector.
func (s *session) checkChunk(ctx context.Context, elems []*big.Int, prev *big.Int, off int, what string, requireSorted, members bool) error {
	if !requireSorted && !members {
		return nil
	}
	check := func(i int) error {
		if requireSorted {
			p := prev
			if i > 0 {
				p = elems[i-1]
			}
			if p != nil && p.Cmp(elems[i]) > 0 {
				return fmt.Errorf("%w: %s is not sorted at index %d", ErrMalformedReply, what, off+i)
			}
		}
		if members && !s.cfg.Group.Contains(elems[i]) {
			return fmt.Errorf("%w: %s element %d is not a group member", ErrMalformedReply, what, off+i)
		}
		return nil
	}
	p := s.cfg.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > len(elems) {
		p = len(elems)
	}
	if p <= 1 || len(elems) < parallelCheckMin || !members {
		for i := range elems {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := check(i); err != nil {
				return err
			}
		}
		return nil
	}

	type failure struct {
		idx int
		err error
	}
	fails := make([]failure, p)
	per := (len(elems) + p - 1) / p
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > len(elems) {
			hi = len(elems)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					fails[w] = failure{idx: i, err: err}
					return
				}
				if err := check(i); err != nil {
					fails[w] = failure{idx: i, err: err}
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	var first *failure
	for w := range fails {
		if f := &fails[w]; f.err != nil && (first == nil || f.idx < first.idx) {
			first = f
		}
	}
	if first != nil {
		return first.err
	}
	return nil
}

// dedup returns the distinct values of vs, preserving first-seen order.
func dedup(vs [][]byte) [][]byte {
	seen := make(map[string]struct{}, len(vs))
	out := make([][]byte, 0, len(vs))
	for _, v := range vs {
		k := string(v)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, v)
	}
	return out
}

// hashSet hashes each value once and runs the Section 3.2.2 collision
// check over those hashes.
func (s *session) hashSet(vs [][]byte) ([]*big.Int, error) {
	xs := s.cfg.Oracle.HashAll(vs)
	if cols := oracle.CollisionsAmong(vs, xs); len(cols) > 0 {
		return nil, fmt.Errorf("%w: indices %d and %d", ErrHashCollision, cols[0].I, cols[0].J)
	}
	return xs, nil
}

// encryptSet bulk-encrypts under k with the configured parallelism.
func (s *session) encryptSet(ctx context.Context, k *commutative.Key, xs []*big.Int) ([]*big.Int, error) {
	return commutative.EncryptAll(ctx, s.cfg.Scheme, k, xs, s.cfg.Parallelism)
}

// encryptReceived is encryptSet for the run at offset off of the
// received vector what, whose membership test is this encryption.
func (s *session) encryptReceived(ctx context.Context, k *commutative.Key, xs []*big.Int, off int, what string) ([]*big.Int, error) {
	ys, err := commutative.EncryptAllAt(ctx, s.cfg.Scheme, k, xs, s.cfg.Parallelism, off)
	return ys, notMember(err, what)
}

// decryptReceived is the decryption counterpart of encryptReceived.
func (s *session) decryptReceived(ctx context.Context, k *commutative.Key, ys []*big.Int, off int, what string) ([]*big.Int, error) {
	xs, err := commutative.DecryptAllAt(ctx, s.cfg.Scheme, k, ys, s.cfg.Parallelism, off)
	return xs, notMember(err, what)
}

// notMember turns the group.ErrNotInGroup with which the Scheme refused
// an element of the received vector what into the ErrMalformedReply a
// failed membership test is; err already names the element's index in
// the whole vector.  Any other error passes through.
func notMember(err error, what string) error {
	if errors.Is(err, group.ErrNotInGroup) {
		return fmt.Errorf("%w: %s: %v", ErrMalformedReply, what, err)
	}
	return err
}

// sortedCopy returns the elements in ascending numeric order, which for
// the fixed-width wire encoding coincides with lexicographic byte order —
// the "reordered lexicographically" of the paper's protocol steps.
func sortedCopy(elems []*big.Int) []*big.Int {
	out := make([]*big.Int, len(elems))
	copy(out, elems)
	sort.Slice(out, func(i, j int) bool { return out[i].Cmp(out[j]) < 0 })
	return out
}

// sortIndicesByElem returns a permutation perm such that
// elems[perm[0]] <= elems[perm[1]] <= ... in numeric (= wire
// lexicographic) order.
func sortIndicesByElem(elems []*big.Int) []int {
	perm := make([]int, len(elems))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool { return elems[perm[i]].Cmp(elems[perm[j]]) < 0 })
	return perm
}

// keyer builds fixed-width map keys for group elements by FillBytes
// into a reused buffer of the backend's element width, so the match
// phases hash constant-size strings instead of reallocating a
// variable-length Bytes() slice per element.  Not safe for concurrent
// use; the match phases are single-goroutine.
type keyer struct{ buf []byte }

func newKeyer(g group.Backend) *keyer {
	return &keyer{buf: make([]byte, g.ElementLen())}
}

func (k *keyer) key(x *big.Int) string {
	x.FillBytes(k.buf)
	return string(k.buf)
}

// multisetCounts tallies the occurrences of each element.
func multisetCounts(elems []*big.Int, k *keyer) map[string]int {
	out := make(map[string]int, len(elems))
	for _, e := range elems {
		out[k.key(e)]++
	}
	return out
}

// overlap returns Σ_{z∈a} |{z' ∈ b : z' = z}|: |A ∩ B| when both are
// sets, and the join size Σ_v dup_A(v)·dup_B(v) when they are multisets.
func overlap(a, b []*big.Int, k *keyer) int {
	inB := multisetCounts(b, k)
	n := 0
	for _, z := range a {
		n += inB[k.key(z)]
	}
	return n
}
