package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"minshare/internal/costmodel"
	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// These tests certify the delta-maintenance tentpole against the
// costmodel closed forms the same way the cache tests certify the warm
// forms: a delta-upgraded requery must cost exactly
// IntersectionDeltaOps / JoinDeltaOps, and one standing-query update
// must cost exactly IntersectionUpdateOps / JoinUpdateOps and
// *DeltaWireCost — operation for operation, byte for byte.

// scriptedSource is a DeltaSource tests drive by hand.
type scriptedSource struct {
	mu     sync.Mutex
	ver    uint64
	deltas []SetDelta
	notify chan struct{}
	broken bool // DeltaSince answers !ok, as a sealed change log would
}

func newScriptedSource(ver uint64) *scriptedSource {
	return &scriptedSource{ver: ver, notify: make(chan struct{})}
}

func (f *scriptedSource) Version() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ver
}

func (f *scriptedSource) DeltaSince(from uint64) (SetDelta, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.broken {
		return SetDelta{}, false
	}
	out := SetDelta{From: from, To: from}
	for out.To < f.ver {
		found := false
		for _, d := range f.deltas {
			if d.From == out.To {
				out.Inserted = append(out.Inserted, d.Inserted...)
				out.Updated = append(out.Updated, d.Updated...)
				out.Deleted = append(out.Deleted, d.Deleted...)
				out.To = d.To
				found = true
				break
			}
		}
		if !found {
			return SetDelta{}, false
		}
	}
	return out, true
}

func (f *scriptedSource) Wait(ctx context.Context, from uint64) error {
	for {
		f.mu.Lock()
		if f.ver > from {
			f.mu.Unlock()
			return nil
		}
		ch := f.notify
		f.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// push appends one delta step and wakes waiters.
func (f *scriptedSource) push(d SetDelta) {
	f.mu.Lock()
	f.ver = d.To
	f.deltas = append(f.deltas, d)
	ch := f.notify
	f.notify = make(chan struct{})
	f.mu.Unlock()
	close(ch)
}

func (f *scriptedSource) breakLog() {
	f.mu.Lock()
	f.broken = true
	f.mu.Unlock()
}

func addOpCounts(os ...costmodel.OpCounts) costmodel.OpCounts {
	var t costmodel.OpCounts
	for _, o := range os {
		t.Ce += o.Ce
		t.Ch += o.Ch
		t.CK += o.CK
		t.SortElems += o.SortElems
	}
	return t
}

// checkHashes asserts the observed oracle-hash census equals exactly
// the closed form's Ch: every value a party hashes is hashed once, and
// the §3.2.2 collision sweep runs over those same hashes.
func checkHashes(t *testing.T, wantCh int64, r, s obs.SessionSnapshot) {
	t.Helper()
	if got := r.Counters.OracleHashes + s.Counters.OracleHashes; got != wantCh {
		t.Errorf("total oracle hashes = %d, want Ch = %d", got, wantCh)
	}
}

func addWireCosts(ws ...costmodel.WireCost) costmodel.WireCost {
	var t costmodel.WireCost
	for _, w := range ws {
		t.FramesSent += w.FramesSent
		t.FramesRecv += w.FramesRecv
		t.PayloadBytesSent += w.PayloadBytesSent
		t.PayloadBytesRecv += w.PayloadBytesRecv
	}
	return t
}

// rec builds the JoinRecord for value v with a fixed-width ext so every
// payload ciphertext has the same length (the wire census assumes it).
func rec(v []byte) JoinRecord {
	return JoinRecord{Value: v, Ext: []byte(fmt.Sprintf("ext|%-12s", v))}
}

func TestStandingIntersectionExactUpdateCost(t *testing.T) {
	const nR, nS, shared = 7, 5, 3
	vR, vS := overlapping(nR, nS, shared)
	src := newScriptedSource(1)
	elemLen := wire.NewCodec(testConfig(0).normalized().Group).ElemLen()

	reg := obs.NewRegistry()
	var results []*IntersectionResult
	r, s := runObservedPair(t, reg, "standing-intersection",
		func(ctx context.Context, conn transport.Conn) (struct{}, error) {
			cfg := testConfig(1)
			q, err := IntersectionReceiverStanding(ctx, cfg, conn, vR)
			if err != nil {
				return struct{}{}, err
			}
			results = append(results, q.Result())

			// Update 1: S gains only-r-0 (a new match) and loses common-0.
			src.push(SetDelta{From: 1, To: 2,
				Inserted: []JoinRecord{{Value: []byte("only-r-0")}},
				Deleted:  [][]byte{[]byte("common-0")}})
			res, err := q.Await(ctx)
			if err != nil {
				return struct{}{}, err
			}
			results = append(results, res)

			// Update 2: the fresh value churns right back out.
			src.push(SetDelta{From: 2, To: 3,
				Inserted: []JoinRecord{{Value: []byte("only-s-9")}},
				Deleted:  [][]byte{[]byte("only-r-0")}})
			res, err = q.Await(ctx)
			if err != nil {
				return struct{}{}, err
			}
			results = append(results, res)
			if got := q.Version(); got != 3 {
				t.Errorf("receiver version = %d, want 3", got)
			}
			return struct{}{}, q.Close(ctx)
		},
		func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
			cfg := testConfig(2)
			cfg.DataVersion = 1
			cfg.DeltaSource = src
			cfg.DeltaChurnMax = 1 // the tiny test set churns over the default bound
			return IntersectionSenderStanding(ctx, cfg, conn, vS)
		})

	// Result correctness at each version.
	wants := [][]string{
		{"common-0", "common-1", "common-2"},
		{"common-1", "common-2", "only-r-0"},
		{"common-1", "common-2"},
	}
	if len(results) != len(wants) {
		t.Fatalf("got %d results, want %d", len(results), len(wants))
	}
	for i, want := range wants {
		got := sortedStrings(results[i].Values)
		if len(got) != len(want) {
			t.Fatalf("result %d = %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("result %d = %v, want %v", i, got, want)
			}
		}
	}
	if got, want := results[2].SenderSetSize, nS; got != want {
		t.Errorf("sender set size after churn = %d, want %d", got, want)
	}

	// Computation: base census plus exactly IntersectionUpdateOps per
	// update — 2(nIns+nDel) modexps, (nIns+nDel) oracle hashes.
	want := addOpCounts(
		costmodel.IntersectionOps(nS, nR),
		costmodel.IntersectionUpdateOps(1, 1),
		costmodel.IntersectionUpdateOps(1, 1),
	)
	if got := r.Counters.ModExps() + s.Counters.ModExps(); got != want.Ce {
		t.Errorf("total modexps = %d, want %d", got, want.Ce)
	}
	checkHashes(t, want.Ch, r, s)
	// The receiver hashes nothing during updates (1 per value, base run
	// only) and the sender draws no new keys after the base run.
	if r.Counters.OracleHashes != int64(nR) {
		t.Errorf("receiver hashes = %d, want %d", r.Counters.OracleHashes, nR)
	}
	if got := r.Counters.KeyGens + s.Counters.KeyGens; got != 2 {
		t.Errorf("total keygens = %d, want 2", got)
	}

	// Communication: base census + subscribe + one delta census per
	// update + the client's closing SubEnd, byte for byte.
	wantWire := addWireCosts(
		costmodel.IntersectionWireCost(nS, nR, elemLen),
		costmodel.SubscribeWireCost(),
		costmodel.IntersectionDeltaWireCost(1, 1, elemLen),
		costmodel.IntersectionDeltaWireCost(1, 1, elemLen),
		costmodel.SubEndWireCost(),
	)
	checkWireCost(t, wantWire, r.Counters, s.Counters)
}

func TestStandingJoinExactUpdateCost(t *testing.T) {
	const nR, nS, shared = 6, 5, 3
	vR, vS := overlapping(nR, nS, shared)
	records := make([]JoinRecord, len(vS))
	for i, v := range vS {
		records[i] = rec(v)
	}
	src := newScriptedSource(1)
	cfg0 := testConfig(0).normalized()
	elemLen := wire.NewCodec(cfg0.Group).ElemLen()
	extLen := cfg0.Cipher.CiphertextLen(len(rec([]byte("x")).Ext))

	reg := obs.NewRegistry()
	var results []*JoinResult
	r, s := runObservedPair(t, reg, "standing-equijoin",
		func(ctx context.Context, conn transport.Conn) (struct{}, error) {
			cfg := testConfig(1)
			q, err := EquijoinReceiverStanding(ctx, cfg, conn, vR)
			if err != nil {
				return struct{}{}, err
			}
			results = append(results, q.Result())

			// One update with all three shapes: an insert that becomes a
			// new match, an ext-only update of an existing match, and a
			// deletion of a matched value.  nUps=2, nDel=1, newMatches=2.
			updated := rec([]byte("common-0"))
			updated.Ext = []byte(fmt.Sprintf("EXT|%-12s", "common-0"))
			src.push(SetDelta{From: 1, To: 2,
				Inserted: []JoinRecord{rec([]byte("only-r-0"))},
				Updated:  []JoinRecord{updated},
				Deleted:  [][]byte{[]byte("common-1")}})
			res, err := q.Await(ctx)
			if err != nil {
				return struct{}{}, err
			}
			results = append(results, res)
			return struct{}{}, q.Close(ctx)
		},
		func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
			cfg := testConfig(2)
			cfg.DataVersion = 1
			cfg.DeltaSource = src
			cfg.DeltaChurnMax = 1
			return EquijoinSenderStanding(ctx, cfg, conn, records)
		})

	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	byVal := func(res *JoinResult) map[string]string {
		m := map[string]string{}
		for _, jm := range res.Matches {
			m[string(jm.Value)] = string(jm.Ext)
		}
		return m
	}
	base := byVal(results[0])
	if len(base) != shared || base["common-0"] != string(rec([]byte("common-0")).Ext) {
		t.Fatalf("base matches = %v", base)
	}
	after := byVal(results[1])
	wantAfter := map[string]string{
		"common-0": fmt.Sprintf("EXT|%-12s", "common-0"),
		"common-2": string(rec([]byte("common-2")).Ext),
		"only-r-0": string(rec([]byte("only-r-0")).Ext),
	}
	if len(after) != len(wantAfter) {
		t.Fatalf("matches after update = %v, want %v", after, wantAfter)
	}
	for k, v := range wantAfter {
		if after[k] != v {
			t.Errorf("match %q ext = %q, want %q", k, after[k], v)
		}
	}
	if got, want := results[1].SenderSetSize, nS; got != want {
		t.Errorf("sender set size after update = %d, want %d", got, want)
	}

	// Computation: base census plus exactly JoinUpdateOps(2, 1, 2).  The
	// receiver's update cost is payload decryptions alone — its modexp
	// and hash counters must equal the plain one-shot receiver's.
	want := addOpCounts(
		costmodel.JoinOps(nS, nR, shared),
		costmodel.JoinUpdateOps(2, 1, 2),
	)
	if got := r.Counters.ModExps() + s.Counters.ModExps(); got != want.Ce {
		t.Errorf("total modexps = %d, want %d", got, want.Ce)
	}
	checkHashes(t, want.Ch, r, s)
	if got := r.Counters.PayloadEncrypts + s.Counters.PayloadEncrypts +
		r.Counters.PayloadDecrypts + s.Counters.PayloadDecrypts; got != want.CK {
		t.Errorf("total payload ops = %d, want %d", got, want.CK)
	}
	// Receiver Ce = 3|V_R| (encrypt Y_R, strip both pair components) —
	// all of it from the base run, none from the update.
	if got, want := r.Counters.ModExps(), int64(3*nR); got != want {
		t.Errorf("receiver modexps = %d, want %d (zero spent on the update)", got, want)
	}

	wantWire := addWireCosts(
		costmodel.JoinWireCost(nS, nR, elemLen, extLen),
		costmodel.SubscribeWireCost(),
		costmodel.JoinDeltaWireCost(2, 1, elemLen, extLen),
		costmodel.SubEndWireCost(),
	)
	checkWireCost(t, wantWire, r.Counters, s.Counters)
}

// A standing sender facing a receiver that never subscribes must behave
// exactly like the one-shot sender: same transcript (certified by the
// wire census), clean nil return when the peer hangs up.
func TestStandingSenderServesOneShotReceiver(t *testing.T) {
	const nR, nS, shared = 5, 4, 2
	vR, vS := overlapping(nR, nS, shared)
	src := newScriptedSource(1)
	elemLen := wire.NewCodec(testConfig(0).normalized().Group).ElemLen()

	reg := obs.NewRegistry()
	var res *IntersectionResult
	r, s := runObservedPair(t, reg, "standing-vs-oneshot",
		func(ctx context.Context, conn transport.Conn) (*IntersectionResult, error) {
			var err error
			res, err = IntersectionReceiver(ctx, testConfig(1), conn, vR)
			// Hang up, as a one-shot client does.
			conn.Close()
			return res, err
		},
		func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
			cfg := testConfig(2)
			cfg.DataVersion = 1
			cfg.DeltaSource = src
			return IntersectionSenderStanding(ctx, cfg, conn, vS)
		})

	if got := sortedStrings(res.Values); len(got) != shared {
		t.Errorf("intersection = %v, want %d values", got, shared)
	}
	// Byte-identical to a plain run: the standing machinery adds nothing
	// to the wire until a Subscribe arrives.
	checkWireCost(t, costmodel.IntersectionWireCost(nS, nR, elemLen), r.Counters, s.Counters)
}

// When the sender cannot produce a delta (sealed change log), it must
// end the subscription gracefully: the receiver's Await returns
// ErrSubscriptionEnded, the last result stays valid, and both sides
// return nil.
func TestStandingSubscriptionEndsOnUnavailableDelta(t *testing.T) {
	const nR, nS, shared = 5, 4, 2
	vR, vS := overlapping(nR, nS, shared)
	src := newScriptedSource(1)

	reg := obs.NewRegistry()
	runObservedPair(t, reg, "standing-ends",
		func(ctx context.Context, conn transport.Conn) (struct{}, error) {
			q, err := IntersectionReceiverStanding(ctx, testConfig(1), conn, vR)
			if err != nil {
				return struct{}{}, err
			}
			src.breakLog()
			src.push(SetDelta{From: 1, To: 2, Inserted: []JoinRecord{{Value: []byte("only-r-0")}}})
			if _, err := q.Await(ctx); !errors.Is(err, ErrSubscriptionEnded) {
				t.Errorf("Await after sealed log = %v, want ErrSubscriptionEnded", err)
			}
			if len(q.Result().Values) != shared {
				t.Errorf("last result lost after subscription end")
			}
			// Await after the end keeps reporting the terminal state.
			if _, err := q.Await(ctx); !errors.Is(err, ErrSubscriptionEnded) {
				t.Errorf("second Await = %v, want ErrSubscriptionEnded", err)
			}
			return struct{}{}, nil
		},
		func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
			cfg := testConfig(2)
			cfg.DataVersion = 1
			cfg.DeltaSource = src
			return IntersectionSenderStanding(ctx, cfg, conn, vS)
		})
}

// A delta over the churn bound likewise ends the subscription instead
// of pushing a near-full-set update.
func TestStandingSubscriptionEndsOverChurnBound(t *testing.T) {
	const nR, nS, shared = 5, 4, 2
	vR, vS := overlapping(nR, nS, shared)
	src := newScriptedSource(1)

	reg := obs.NewRegistry()
	runObservedPair(t, reg, "standing-churn",
		func(ctx context.Context, conn transport.Conn) (struct{}, error) {
			q, err := IntersectionReceiverStanding(ctx, testConfig(1), conn, vR)
			if err != nil {
				return struct{}{}, err
			}
			// 3 of 4 values churn: way past the 25% default bound.
			src.push(SetDelta{From: 1, To: 2,
				Deleted: [][]byte{[]byte("common-0"), []byte("common-1"), []byte("only-s-0")}})
			if _, err := q.Await(ctx); !errors.Is(err, ErrSubscriptionEnded) {
				t.Errorf("Await over churn bound = %v, want ErrSubscriptionEnded", err)
			}
			return struct{}{}, nil
		},
		func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
			cfg := testConfig(2)
			cfg.DataVersion = 1
			cfg.DeltaSource = src
			return IntersectionSenderStanding(ctx, cfg, conn, vS)
		})
}

func TestStandingRejectsShardedConfig(t *testing.T) {
	cfg := testConfig(1)
	cfg.Shards = 4
	connR, connS := transport.Pipe()
	defer connR.Close()
	defer connS.Close()
	if _, err := IntersectionReceiverStanding(context.Background(), cfg, connR, vals("v", 3)); !errors.Is(err, errStandingSharded) {
		t.Errorf("sharded standing receiver = %v, want errStandingSharded", err)
	}
	cfg.DeltaSource = newScriptedSource(1)
	if _, err := IntersectionSenderStanding(context.Background(), cfg, connS, vals("v", 3)); !errors.Is(err, errStandingSharded) {
		t.Errorf("sharded standing sender = %v, want errStandingSharded", err)
	}
}

// TestCacheDeltaUpgradeIntersectionExact certifies the requery path: a
// stale cache entry plus a DeltaSource turns a cold rebuild into an
// O(churn) upgrade, and the total census equals IntersectionDeltaOps
// exactly.
func TestCacheDeltaUpgradeIntersectionExact(t *testing.T) {
	const nR, nS, shared = 7, 5, 3
	vR, vS := overlapping(nR, nS, shared)
	src := newScriptedSource(1)
	reg := obs.NewRegistry()
	cache := NewSenderSetCache(0, reg.Cache())

	run := func(name string, ver uint64, values [][]byte, churnMax float64) (r, s obs.SessionSnapshot, res *IntersectionResult) {
		key := cacheKey(wire.ProtoIntersection)
		key.Version = ver
		cfgS := senderConfig(2, cache, key, 0)
		cfgS.DataVersion = ver
		cfgS.DeltaSource = src
		cfgS.DeltaChurnMax = churnMax
		r, s = runObservedPair(t, reg, name,
			func(ctx context.Context, conn transport.Conn) (*IntersectionResult, error) {
				var err error
				res, err = IntersectionReceiver(ctx, testConfig(int64(ver)), conn, vR)
				return res, err
			},
			func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
				return IntersectionSender(ctx, cfgS, conn, values)
			})
		return r, s, res
	}

	// Cold run at version 1 populates the cache.
	r1, s1, _ := run("cold", 1, vS, 1)
	if got, want := r1.Counters.ModExps()+s1.Counters.ModExps(), costmodel.IntersectionOps(nS, nR).Ce; got != want {
		t.Fatalf("cold modexps = %d, want %d", got, want)
	}

	// Churn: one insert (a new match), one delete.  The requery at
	// version 2 must upgrade the stale entry, not rebuild.
	src.push(SetDelta{From: 1, To: 2,
		Inserted: []JoinRecord{{Value: []byte("only-r-0")}},
		Deleted:  [][]byte{[]byte("common-0")}})
	vS2 := append([][]byte{[]byte("only-r-0")}, vS[1:]...) // drop common-0, add only-r-0
	r2, s2, res2 := run("delta", 2, vS2, 1)

	want := costmodel.IntersectionDeltaOps(len(vS2), nR, 1, 1)
	if got := r2.Counters.ModExps() + s2.Counters.ModExps(); got != want.Ce {
		t.Errorf("delta-requery modexps = %d, want %d", got, want.Ce)
	}
	checkHashes(t, want.Ch, r2, s2)
	if s2.Counters.KeyGens != 0 {
		t.Errorf("upgraded sender drew %d keys, want 0", s2.Counters.KeyGens)
	}
	wantVals := []string{"common-1", "common-2", "only-r-0"}
	got := sortedStrings(res2.Values)
	if len(got) != len(wantVals) {
		t.Fatalf("delta-requery result = %v, want %v", got, wantVals)
	}
	for i := range wantVals {
		if got[i] != wantVals[i] {
			t.Fatalf("delta-requery result = %v, want %v", got, wantVals)
		}
	}
	if snap := reg.Cache().Snapshot(); snap.Upgrades != 1 || snap.Rebuilds != 0 {
		t.Errorf("cache upgrades/rebuilds = %d/%d, want 1/0", snap.Upgrades, snap.Rebuilds)
	}

	// Next churn exceeds a tiny bound: the upgrade path must decline,
	// count a rebuild, and fall back to the cold census.
	src.push(SetDelta{From: 2, To: 3,
		Inserted: []JoinRecord{{Value: []byte("only-r-1")}},
		Deleted:  [][]byte{[]byte("common-1")}})
	vS3 := append([][]byte{[]byte("only-r-1")}, vS2[1:]...)
	_, s3, _ := run("over-bound", 3, vS3, 0.01)
	if got, want := s3.Counters.KeyGens, int64(1); got != want {
		t.Errorf("over-bound sender keygens = %d, want %d (cold rebuild)", got, want)
	}
	if snap := reg.Cache().Snapshot(); snap.Upgrades != 1 || snap.Rebuilds != 1 {
		t.Errorf("cache upgrades/rebuilds = %d/%d, want 1/1", snap.Upgrades, snap.Rebuilds)
	}
}

// TestCacheDeltaUpgradeJoinExact is the equijoin counterpart: upserts
// refresh payload ciphertexts under the retained e'_S, and the census
// equals JoinDeltaOps exactly.
func TestCacheDeltaUpgradeJoinExact(t *testing.T) {
	const nR, nS, shared = 6, 5, 3
	vR, vS := overlapping(nR, nS, shared)
	records := make([]JoinRecord, len(vS))
	for i, v := range vS {
		records[i] = rec(v)
	}
	src := newScriptedSource(1)
	reg := obs.NewRegistry()
	cache := NewSenderSetCache(0, reg.Cache())

	run := func(name string, ver uint64, recs []JoinRecord) (r, s obs.SessionSnapshot, res *JoinResult) {
		key := cacheKey(wire.ProtoEquijoin)
		key.Version = ver
		cfgS := senderConfig(2, cache, key, 0)
		cfgS.DataVersion = ver
		cfgS.DeltaSource = src
		cfgS.DeltaChurnMax = 1
		r, s = runObservedPair(t, reg, name,
			func(ctx context.Context, conn transport.Conn) (*JoinResult, error) {
				var err error
				res, err = EquijoinReceiver(ctx, testConfig(int64(ver)), conn, vR)
				return res, err
			},
			func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
				return EquijoinSender(ctx, cfgS, conn, recs)
			})
		return r, s, res
	}

	r1, s1, _ := run("cold", 1, records)
	if got, want := r1.Counters.ModExps()+s1.Counters.ModExps(), costmodel.JoinOps(nS, nR, shared).Ce; got != want {
		t.Fatalf("cold modexps = %d, want %d", got, want)
	}

	// Churn: insert only-r-0 (new match), update common-0's ext, delete
	// common-1.  nUps=2, nDel=1.
	updated := rec([]byte("common-0"))
	updated.Ext = []byte(fmt.Sprintf("EXT|%-12s", "common-0"))
	src.push(SetDelta{From: 1, To: 2,
		Inserted: []JoinRecord{rec([]byte("only-r-0"))},
		Updated:  []JoinRecord{updated},
		Deleted:  [][]byte{[]byte("common-1")}})
	recs2 := []JoinRecord{rec([]byte("only-r-0")), updated}
	for _, v := range vS {
		if string(v) != "common-0" && string(v) != "common-1" {
			recs2 = append(recs2, rec(v))
		}
	}
	r2, s2, res2 := run("delta", 2, recs2)

	// Intersection after churn: common-0, common-2, only-r-0.
	const nInt2 = 3
	want := costmodel.JoinDeltaOps(len(recs2), nR, 2, 1, nInt2)
	if got := r2.Counters.ModExps() + s2.Counters.ModExps(); got != want.Ce {
		t.Errorf("delta-requery modexps = %d, want %d", got, want.Ce)
	}
	checkHashes(t, want.Ch, r2, s2)
	if got := r2.Counters.PayloadEncrypts + s2.Counters.PayloadEncrypts +
		r2.Counters.PayloadDecrypts + s2.Counters.PayloadDecrypts; got != want.CK {
		t.Errorf("delta-requery payload ops = %d, want %d", got, want.CK)
	}
	if s2.Counters.KeyGens != 0 {
		t.Errorf("upgraded sender drew %d keys, want 0", s2.Counters.KeyGens)
	}
	exts := map[string]string{}
	for _, jm := range res2.Matches {
		exts[string(jm.Value)] = string(jm.Ext)
	}
	if len(exts) != nInt2 || exts["common-0"] != string(updated.Ext) {
		t.Errorf("delta-requery matches = %v", exts)
	}
}
