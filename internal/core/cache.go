package core

import (
	"container/list"
	"context"
	"fmt"
	"math/big"
	"sync"
	"time"

	"minshare/internal/commutative"
	"minshare/internal/obs"
	"minshare/internal/wire"
)

// SetCacheKey identifies one slot of a SenderSetCache.  Every field
// participates in the identity on purpose:
//
//   - PeerHost: the cached state pins a secret exponent, and reusing an
//     exponent across peers would let colluding receivers correlate
//     f_e(h(v)) values they were shown separately.  Keying by peer is
//     what makes the no-reuse guarantee structural (see SenderSetCache).
//     The guarantee is only as strong as the identity filled in here:
//     party.Server uses its authenticated PeerIdentity hook when
//     configured and otherwise the remote host, which aliases distinct
//     parties behind one NAT/proxy (see the party.Server.SetCache
//     caveat).
//   - Table: a server may serve several tables or attributes.
//   - Version: the table's monotonic data version (reldb.Table.Version);
//     any mutation of the private database changes it, so stale
//     precomputation can never be replayed.
//   - Protocol: the protocols precompute different state from the same
//     table (the intersection family dedups, equijoin-size keeps the
//     multiset, the equijoin adds payload ciphertexts), so slots must
//     not alias across protocol roles.
//   - Shard/Shards: a sharded session (Config.Shards > 1) runs one
//     sub-protocol per hash-prefix partition, each under its own fresh
//     exponent; Shard is the partition index and Shards the partition
//     count the key belongs to.  Both participate in the identity so a
//     shard's cached state replays only for the same partition of the
//     same partitioning — re-sharding with a different k re-partitions
//     every value and must miss.  Unsharded sessions leave both zero,
//     preserving every pre-shard cache identity byte for byte.
type SetCacheKey struct {
	PeerHost string
	Table    string
	Version  uint64
	Protocol wire.Protocol
	Shard    uint8
	Shards   uint8
}

// CacheEntry is the sender-side state a protocol run can replay: the
// own set encrypted under a pinned key, sorted (with, for the equijoin,
// the aligned payload ciphertexts), plus the equijoin's second key.
type CacheEntry struct {
	// Set is the encrypted, sorted own set; for the equijoin its
	// payload carries the K(κ(v), ext(v)) ciphertexts in the same
	// permuted order.
	Set *commutative.CachedSet
	// ExtKey is the equijoin sender's second exponent e'_S, still
	// needed on a warm run to answer the pair-encryption phase; nil for
	// the other protocols.
	ExtKey *commutative.Key
}

// hasExt reports whether the entry has the equijoin shape: its set
// carries the payload ciphertexts, derived under ExtKey.
func (e *CacheEntry) hasExt() bool { return e.ExtKey != nil && e.Set.Payload() != nil }

// memoryBytes is the entry's accounting size for the cache bound.
func (e *CacheEntry) memoryBytes() int64 {
	if e == nil || e.Set == nil {
		return 0
	}
	m := e.Set.MemoryBytes()
	if e.ExtKey != nil {
		m += 64 // exponent plus header, same order as the set's key
	}
	return m
}

// SenderSetCache amortizes the bulk-exponentiation phase of sender-side
// protocol runs across a series of queries: each slot holds one
// CacheEntry under a SetCacheKey, bounded in memory with
// least-recently-used eviction, and Rotate flushes everything at once
// for explicit key rotation.
//
// Exponent-reuse guarantee: a cached exponent is only ever replayed for
// the exact SetCacheKey it was created under, and the key names the
// peer identity.  Two different peers therefore never see values
// encrypted under the same exponent — the cache narrows each exponent's
// lifetime from "one session" to "one (peer, table, version, protocol)
// series", it never widens it.  Rotation (Rotate, or cmd/psiserver's
// -cache-rotate interval) bounds that lifetime in time as well.  The
// guarantee presumes the key's PeerHost really distinguishes peers:
// with an unauthenticated remote-address identity, parties sharing a
// NAT or proxy alias into one slot, so such deployments must supply an
// authenticated identity (party.Server.PeerIdentity) or leave the
// cache disabled, as it is by default.
//
// The zero value is not usable; call NewSenderSetCache.  All methods
// are safe for concurrent use.
type SenderSetCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	slots    map[SetCacheKey]*list.Element
	stats    *obs.CacheStats
}

// lruItem is what the LRU list elements hold.  size is the entry's
// accounting size at admission time: removal must subtract exactly what
// admission added, so the size is captured once rather than recomputed.
// (Recomputing at removal — as an earlier version did — let any entry
// whose memoryBytes changed while cached, e.g. by an ExtKey attached
// after Put, unbalance the byte budget on every Rotate/eviction until
// the bound drifted useless.)
type lruItem struct {
	key   SetCacheKey
	entry *CacheEntry
	size  int64
}

// NewSenderSetCache returns a cache bounded to roughly maxBytes of
// precomputed state (maxBytes <= 0 means unbounded).  stats, when
// non-nil, receives the hit/miss/eviction/rotation census — psiserver
// passes its obs registry's Cache() so the counters surface on
// /metrics.
func NewSenderSetCache(maxBytes int64, stats *obs.CacheStats) *SenderSetCache {
	return &SenderSetCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		slots:    make(map[SetCacheKey]*list.Element),
		stats:    stats,
	}
}

// Lookup returns the entry cached under k, marking it most recently
// used, or (nil, false) on a miss.  Hit/miss counters are recorded.
func (c *SenderSetCache) Lookup(k SetCacheKey) (*CacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.slots[k]
	if !ok {
		c.stats.AddMiss()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.AddHit()
	return el.Value.(*lruItem).entry, true
}

// LookupStale returns an entry cached for the same slot — peer, table,
// protocol, shard — at a *different* data version, together with that
// version, or (nil, 0, false) when none exists.  It is the entry point
// of the delta-upgrade path: a stale entry is normally unreachable
// garbage awaiting displacement, but with a DeltaSource it is raw
// material — the pinned key and sorted ciphertexts only need the churn
// re-encrypted.  LookupStale records neither a hit nor a miss (the
// preceding Lookup already counted the miss) and does not touch LRU
// order; the upgrade's Put re-admits the slot at the front.
func (c *SenderSetCache) LookupStale(k SetCacheKey) (*CacheEntry, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ik := el.Value.(*lruItem).key
		if ik.PeerHost == k.PeerHost && ik.Table == k.Table && ik.Protocol == k.Protocol &&
			ik.Shard == k.Shard && ik.Shards == k.Shards && ik.Version != k.Version {
			return el.Value.(*lruItem).entry, ik.Version, true
		}
	}
	return nil, 0, false
}

// Put stores entry under k, displacing any previous entry for the same
// key and — because a version bump makes the old state permanently
// unreachable — any entry for the same (peer, table, protocol) at a
// different version.  It then evicts least-recently-used entries until
// the cache fits its memory bound.  An entry larger than the whole
// bound is not cached at all.
func (c *SenderSetCache) Put(k SetCacheKey, entry *CacheEntry) {
	size := entry.memoryBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.slots[k]; ok {
		c.removeLocked(el, true)
	}
	// Drop superseded versions of the same slot: they can never be
	// looked up again, so letting them age out of the LRU would only
	// waste the memory budget.
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		ik := el.Value.(*lruItem).key
		if ik.PeerHost == k.PeerHost && ik.Table == k.Table && ik.Protocol == k.Protocol && ik.Version != k.Version {
			c.removeLocked(el, true)
		}
		el = next
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	el := c.ll.PushFront(&lruItem{key: k, entry: entry, size: size})
	c.slots[k] = el
	c.bytes += size
	for c.maxBytes > 0 && c.bytes > c.maxBytes {
		c.removeLocked(c.ll.Back(), true)
	}
}

// Rotate invalidates every entry at once: the explicit key-rotation
// path.  Every pinned exponent is discarded; the next session per slot
// will draw a fresh key and repopulate.
func (c *SenderSetCache) Rotate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := int64(c.ll.Len())
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		c.removeLocked(el, false)
		el = next
	}
	c.stats.AddRotation(n)
}

// Len reports the number of cached entries.
func (c *SenderSetCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// MemoryBytes reports the current accounting size of the cached state.
func (c *SenderSetCache) MemoryBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// removeLocked unlinks one element; countEviction selects whether it
// shows up in the eviction census (rotation accounts for its removals
// itself).
func (c *SenderSetCache) removeLocked(el *list.Element, countEviction bool) {
	item := el.Value.(*lruItem)
	c.ll.Remove(el)
	delete(c.slots, item.key)
	c.bytes -= item.size
	if countEviction {
		c.stats.AddEviction()
	}
}

// cacheLookup consults the configured cache for this run's slot.
func (s *session) cacheLookup() (*CacheEntry, bool) {
	if s.cfg.SetCache == nil {
		return nil, false
	}
	return s.cfg.SetCache.Lookup(s.cfg.CacheKey)
}

// cachePut populates this run's slot after a miss.
func (s *session) cachePut(entry *CacheEntry) {
	if s.cfg.SetCache != nil {
		s.cfg.SetCache.Put(s.cfg.CacheKey, entry)
	}
}

// ownSet carries the sender prelude between its two halves: the keys —
// all the equijoin's pair exchange needs — and either the complete
// encrypted set (warm or delta-upgraded) or the hashed values still
// awaiting ownSetBuild (cold).
type ownSet struct {
	key, extKey *commutative.Key
	ent         *CacheEntry   // nil on the cold path until ownSetBuild
	hashed      []*big.Int    // cold path: h(V_S)
	spent       time.Duration // cold path: precomputation time so far
}

// ownSetKeys is the first half of the sender prelude every protocol
// begins with, and has three outcomes.  Warm: the slot for this
// (peer, table, version, protocol) holds the encrypted set from an
// earlier run, which replays whole, pinned key(s) included.  Upgraded:
// a stale entry plus a DeltaSource re-encrypts only the churn under the
// pinned key.  Cold: hash V_S (with the §3.2.2 collision check) and draw
// e_S — then e'_S when withExt — leaving the bulk encryption to
// ownSetBuild.
func (s *session) ownSetKeys(ctx context.Context, vs [][]byte, withExt bool) (*ownSet, error) {
	var start time.Time
	if s.lat != nil {
		start = time.Now()
	}
	ent, ok := s.cacheLookup()
	if ok {
		if s.lat != nil {
			s.lat.Record(obs.LatCacheHit, time.Since(start))
		}
	} else {
		// upgradeCachedEntry records its own latency.
		ent, ok = s.upgradeCachedEntry(ctx, len(vs), withExt)
	}
	if ok {
		return &ownSet{key: ent.Set.Key(), extKey: ent.ExtKey, ent: ent}, nil
	}

	sp := obs.StartSpan(ctx, "hash-to-group")
	xs, err := s.hashSet(vs)
	sp.End()
	if err != nil {
		return nil, s.abort(ctx, err)
	}
	o := &ownSet{hashed: xs}
	if o.key, err = s.cfg.Scheme.GenerateKey(s.cfg.Rand); err != nil {
		return nil, s.abort(ctx, fmt.Errorf("core: generating e_S: %w", err))
	}
	if withExt {
		if o.extKey, err = s.cfg.Scheme.GenerateKey(s.cfg.Rand); err != nil {
			return nil, s.abort(ctx, fmt.Errorf("core: generating e'_S: %w", err))
		}
	}
	if s.lat != nil {
		o.spent = time.Since(start)
	}
	return o, nil
}

// ownSetBuild is the second half of the sender prelude: a no-op unless
// the first half came out cold, in which case it bulk-encrypts h(V_S)
// under e_S, reorders lexicographically — carrying along, for the
// equijoin, the payload ciphertexts K(f_e'S(h(v)), ext(v)) built from
// exts (aligned with the values given to ownSetKeys) — and populates
// the cache slot, so the work is paid once per series rather than once
// per session.  The returned entry is shared with the cache; callers
// must not mutate its vectors.
func (s *session) ownSetBuild(ctx context.Context, o *ownSet, exts [][]byte) (*CacheEntry, error) {
	if o.ent != nil {
		return o.ent, nil
	}
	var start time.Time
	if s.lat != nil {
		start = time.Now()
	}
	sp := obs.StartSpan(ctx, "bulk-encrypt")
	firsts, err := s.encryptSet(ctx, o.key, o.hashed)
	var kappas []*big.Int
	if err == nil && o.extKey != nil {
		kappas, err = s.encryptSet(ctx, o.extKey, o.hashed)
	}
	sp.End()
	if err != nil {
		return nil, s.abort(ctx, err)
	}
	var cts [][]byte
	if o.extKey != nil {
		sp = obs.StartSpan(ctx, "payload-encrypt")
		cts, err = s.encryptPayloads(kappas, exts)
		sp.End()
		if err != nil {
			return nil, s.abort(ctx, err)
		}
	}
	commutative.SortAligned(firsts, cts)
	cs, err := commutative.CachedSetFromSorted(o.key, firsts, cts)
	if err != nil {
		return nil, s.abort(ctx, err)
	}
	o.ent = &CacheEntry{Set: cs, ExtKey: o.extKey}
	s.cachePut(o.ent)
	if s.lat != nil {
		// The exchange an equijoin runs between the two halves is not the
		// cache's to answer for, so it stays out of the histogram.
		s.lat.Record(obs.LatCacheMiss, o.spent+time.Since(start))
	}
	return o.ent, nil
}
