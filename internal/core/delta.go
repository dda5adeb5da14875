package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"time"

	"minshare/internal/commutative"
	"minshare/internal/obs"
	"minshare/internal/wire"
)

// DefaultDeltaChurnMax is the churn bound the delta-upgrade path applies
// when Config.DeltaChurnMax is zero: a delta touching more than a
// quarter of the current set is rebuilt from scratch instead.  Around
// that point the upgrade's per-value bookkeeping stops winning over the
// bulk-exponentiation pipeline's parallelism.
const DefaultDeltaChurnMax = 0.25

// SetDelta reports how a party's value set changed between two data
// versions, in the vocabulary of the protocol layer: inserted and
// updated values carry their ext(v) payloads (empty for the set
// protocols, which have none), deleted values are bare.  An updated
// value is present at both versions with a changed ext(v) — it does not
// affect set membership, only the equijoin's payload ciphertexts.
type SetDelta struct {
	// From and To are the data versions the delta spans.
	From, To uint64
	// Inserted and Updated hold the changed values with their current
	// ext(v); Deleted holds the values no longer present.
	Inserted []JoinRecord
	Updated  []JoinRecord
	Deleted  [][]byte
}

// Empty reports whether the delta carries no changes.
func (d SetDelta) Empty() bool {
	return len(d.Inserted) == 0 && len(d.Updated) == 0 && len(d.Deleted) == 0
}

// DeltaSource answers "how did my value set change since version v?" —
// the question the cache-upgrade and standing-query paths put to the
// private database.  internal/party adapts reldb.AttributeSource to
// this interface; core deliberately does not import reldb.
type DeltaSource interface {
	// Version returns the current data version.
	Version() uint64
	// DeltaSince reports the changes between version from and the
	// current version.  ok is false when the delta cannot be
	// reconstructed (derived table, version outside the bounded change
	// log) and the caller must fall back to a full rebuild.
	DeltaSince(from uint64) (SetDelta, bool)
	// Wait blocks until the version moves past from or ctx ends.
	Wait(ctx context.Context, from uint64) error
}

// deltaUpgradable reports whether the delta-upgrade path applies to a
// protocol's cached state.  The set protocols and the equijoin cache
// one entry per *distinct* value, which is exactly what a SetDelta
// describes; the equijoin-size protocol caches the encrypted multiset
// (duplicate ciphertexts included), whose multiplicities a value-level
// delta cannot maintain.  Sharded entries are likewise excluded: a
// table-level delta spans all partitions, and upgrading one shard's
// entry would need the delta re-partitioned by hash prefix.
func (s *session) deltaUpgradable() bool {
	if s.cfg.SetCache == nil || s.cfg.DeltaSource == nil || s.cfg.DeltaChurnMax < 0 {
		return false
	}
	if s.cfg.CacheKey.Shards != 0 {
		return false
	}
	switch s.cfg.CacheKey.Protocol {
	case wire.ProtoIntersection, wire.ProtoIntersectionSize, wire.ProtoEquijoin:
		return true
	}
	return false
}

// errDeltaChurn reports a delta over the Config.DeltaChurnMax bound.
var errDeltaChurn = errors.New("core: delta exceeds the churn bound")

// applySetDelta brings the sender's encrypted set forward by d, paying
// exactly the sender half of costmodel.IntersectionUpdateOps /
// JoinUpdateOps: hash the churned values (C_h = churn) and re-encrypt
// them under the entry's pinned key inside ApplyDelta (C_e = churn).
// In the equijoin shape every inserted or updated value also gets a
// fresh payload ciphertext K(f_e'S(h(v)), ext(v)) under the retained
// e'_S — one more C_e and one C_K each.  Updated values do not change
// set membership, so the set protocols skip them entirely.  nValues is
// the churn bound's denominator; a delta over the bound, or one that
// conflicts with the set, is an error and the caller falls back (full
// rebuild, or ending the subscription).  Both the cache-upgrade path and
// the standing-query push loop maintain their set through here.
func (s *session) applySetDelta(ctx context.Context, ent *CacheEntry, d SetDelta, nValues int) (*CacheEntry, *commutative.CipherDelta, error) {
	upserts := d.Inserted
	if ent.hasExt() {
		upserts = slices.Concat(d.Inserted, d.Updated)
	}
	churn := len(upserts) + len(d.Deleted)
	if s.cfg.DeltaChurnMax >= 0 && float64(churn) > s.cfg.DeltaChurnMax*float64(nValues) {
		return nil, nil, errDeltaChurn
	}
	all := make([][]byte, 0, churn)
	exts := make([][]byte, 0, len(upserts))
	for _, r := range upserts {
		all = append(all, r.Value)
		exts = append(exts, r.Ext)
	}
	hs, err := s.hashSet(append(all, d.Deleted...))
	if err != nil {
		return nil, nil, err
	}
	nIns, nUp := len(d.Inserted), len(upserts)
	var insP, updP [][]byte // nil: ApplyDelta's payload-less shape
	if ent.hasExt() {
		kappas, err := s.encryptSet(ctx, ent.ExtKey, hs[:nUp])
		if err != nil {
			return nil, nil, err
		}
		payloads, err := s.encryptPayloads(kappas, exts)
		if err != nil {
			return nil, nil, err
		}
		insP, updP = payloads[:nIns], payloads[nIns:]
	}
	next, cd, err := ent.Set.ApplyDelta(ctx, s.cfg.Scheme, hs[:nIns], hs[nIns:nUp], hs[nUp:], insP, updP, s.cfg.Parallelism)
	if err != nil {
		return nil, nil, err
	}
	return &CacheEntry{Set: next, ExtKey: ent.ExtKey}, cd, nil
}

// upgradeCachedEntry tries to bring a stale cached entry for this run's
// slot up to the current data version by re-encrypting only the delta:
// the O(churn) alternative to the O(|V|) rebuild.  nValues is the
// current set size (the churn bound's denominator); withExt is the
// shape the protocol needs, which the stale entry must have.
//
// On success the upgraded entry is already cached under the current key
// (displacing the stale one) and the upgrade is counted; any failure —
// no stale entry, delta unavailable, churn over Config.DeltaChurnMax,
// or a delta/set conflict — counts a rebuild (when an upgrade was
// actually attempted) and returns false so the caller runs the cold
// path.
func (s *session) upgradeCachedEntry(ctx context.Context, nValues int, withExt bool) (*CacheEntry, bool) {
	if !s.deltaUpgradable() {
		return nil, false
	}
	var start time.Time
	if s.lat != nil {
		start = time.Now()
	}
	ent, staleVer, ok := s.cfg.SetCache.LookupStale(s.cfg.CacheKey)
	if !ok || ent.hasExt() != withExt {
		return nil, false
	}
	stats := s.cfg.SetCache.stats
	d, ok := s.cfg.DeltaSource.DeltaSince(staleVer)
	if !ok || d.To != s.cfg.DataVersion || d.From != staleVer {
		stats.AddRebuild()
		return nil, false
	}
	up, _, err := s.applySetDelta(ctx, ent, d, nValues)
	if err != nil {
		stats.AddRebuild()
		return nil, false
	}
	s.cachePut(up)
	stats.AddUpgrade()
	if s.lat != nil {
		s.lat.Record(obs.LatCacheUpgrade, time.Since(start))
	}
	return up, true
}

// encryptPayloads computes the equijoin payload ciphertexts
// K(κ(v), ext(v)) for κ values kappas with aligned payloads exts.  The
// result is non-nil even when empty, which is what marks a cached set
// as payload-carrying.
func (s *session) encryptPayloads(kappas []*big.Int, exts [][]byte) ([][]byte, error) {
	out := make([][]byte, len(kappas))
	for i, kappa := range kappas {
		var err error
		if out[i], err = s.cfg.Cipher.Encrypt(kappa, exts[i]); err != nil {
			return nil, fmt.Errorf("core: encrypting ext(v): %w", err)
		}
		if s.counters != nil {
			s.counters.AddPayloadEncrypts(1)
		}
	}
	return out, nil
}
