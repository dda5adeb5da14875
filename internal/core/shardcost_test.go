package core

import (
	"context"
	"testing"

	"minshare/internal/costmodel"
	"minshare/internal/group"
	"minshare/internal/kenc"
	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// Sharded cost certification: the closed forms in costmodel's
// shardcost.go are asserted *exactly* against the observed counters of
// live sharded runs — the same discipline as the unsharded cross-checks
// above.  The census layer is the codec frame, which is what the core
// counters see; the mux's shard tags and credit frames live below it.

// shardSizes computes the per-bucket sizes both parties will announce,
// using the same partitioner as the protocols.
func shardSizes(values [][]byte, k int) []int {
	s := newSession(context.Background(), testConfig(1), nil)
	buckets, _ := s.shardPartition(values, k)
	sizes := make([]int, k)
	for i, b := range buckets {
		sizes[i] = len(b)
	}
	return sizes
}

func TestCostModelCrossCheckShardedIntersection(t *testing.T) {
	const nR, nS, shared, k = 14, 11, 5, 4
	vR, vS := overlapping(nR, nS, shared)
	reg := obs.NewRegistry()

	r, s := runObservedPair(t, reg, "intersection",
		func(ctx context.Context, conn transport.Conn) (*IntersectionResult, error) {
			return IntersectionReceiver(ctx, shardedConfig(1, k, 0), conn, vR)
		},
		func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
			return IntersectionSender(ctx, shardedConfig(2, k, 0), conn, vS)
		})

	shardR, shardS := shardSizes(vR, k), shardSizes(vS, k)
	ops := costmodel.ShardedIntersectionOps(shardS, shardR)

	// Ce is invariant under sharding: still 2(|V_S|+|V_R|).
	if unsharded := costmodel.IntersectionOps(nS, nR); ops.Ce != unsharded.Ce {
		t.Fatalf("sharded Ce = %d, unsharded = %d; sharding must not add exponentiations", ops.Ce, unsharded.Ce)
	}
	if got := r.Counters.ModExps() + s.Counters.ModExps(); got != ops.Ce {
		t.Errorf("observed modexps = %d, want Ce = %d", got, ops.Ce)
	}
	// Ch doubles: one partition-routing hash plus one sub-protocol hash
	// per value on each side.  The §3.2.2 collision check runs over the
	// sub-protocol's hashes and adds none.
	if got, want := r.Counters.OracleHashes+s.Counters.OracleHashes, ops.Ch; got != want {
		t.Errorf("observed oracle hashes = %d, want Ch = %d", got, want)
	}
	// Each sub-session draws its own commutative key: k per party.
	wantKeys := costmodel.ShardedKeyGens(k, 1)
	if r.Counters.KeyGens != wantKeys || s.Counters.KeyGens != wantKeys {
		t.Errorf("keygens = %d/%d, want %d/%d", r.Counters.KeyGens, s.Counters.KeyGens, wantKeys, wantKeys)
	}

	elemLen := group.TestGroup().ElementLen()
	want := costmodel.ShardedIntersectionWireCost(shardS, shardR, elemLen, 0)
	checkWireCost(t, want, r.Counters, s.Counters)

	// Stripping the sharded envelope — two extended outer headers, 2k
	// sub-headers, 3 vector prefixes per shard — recovers the identical
	// Section 6.1 codeword bits (|V_S|+2|V_R|)·k: buckets partition the
	// sets, so sharding moves no extra element bytes.
	observed := r.Counters.PayloadBytesSent + r.Counters.PayloadBytesRecv
	envelope := 2*wire.ShardedHeaderLen(0, k) + int64(k)*2*wire.EncodedHeaderLen + int64(3*k)*wire.VectorOverhead
	if gotBits := 8 * (observed - envelope); float64(gotBits) != costmodel.IntersectionCommBits(nS, nR, 8*elemLen) {
		t.Errorf("observed codeword bits = %d, want %v", gotBits, costmodel.IntersectionCommBits(nS, nR, 8*elemLen))
	}
}

func TestCostModelCrossCheckShardedEquijoinChunked(t *testing.T) {
	const nR, nS, shared, k, chunk = 12, 9, 4, 3, 2
	const extPlainLen = 24
	vR, vS := overlapping(nR, nS, shared)
	records := make([]JoinRecord, len(vS))
	for i, v := range vS {
		ext := make([]byte, extPlainLen)
		copy(ext, "ext for ")
		copy(ext[8:], v)
		records[i] = JoinRecord{Value: v, Ext: ext}
	}
	reg := obs.NewRegistry()

	r, s := runObservedPair(t, reg, "equijoin",
		func(ctx context.Context, conn transport.Conn) (*JoinResult, error) {
			return EquijoinReceiver(ctx, shardedConfig(1, k, chunk), conn, vR)
		},
		func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
			return EquijoinSender(ctx, shardedConfig(2, k, chunk), conn, records)
		})

	// Per-bucket sizes and intersections from the same partitioner.
	sess := newSession(context.Background(), testConfig(1), nil)
	bR, _ := sess.shardPartition(vR, k)
	bS, _ := sess.shardPartition(vS, k)
	shardR, shardS, shardI := make([]int, k), make([]int, k), make([]int, k)
	for i := 0; i < k; i++ {
		shardR[i], shardS[i] = len(bR[i]), len(bS[i])
		shardI[i] = len(plaintextIntersection(bR[i], bS[i]))
	}

	ops := costmodel.ShardedJoinOps(shardS, shardR, shardI)
	if got := r.Counters.ModExps() + s.Counters.ModExps(); got != ops.Ce {
		t.Errorf("observed modexps = %d, want Ce = %d", got, ops.Ce)
	}
	if got, want := r.Counters.OracleHashes+s.Counters.OracleHashes, ops.Ch; got != want {
		t.Errorf("observed oracle hashes = %d, want Ch = %d", got, want)
	}
	// The CK census survives sharding: Σ_i (|V_S,i| + I_i) = |V_S| + |I|.
	if got := int64(s.Counters.PayloadEncrypts + r.Counters.PayloadDecrypts); got != ops.CK {
		t.Errorf("observed K operations = %d, want CK = %d", got, ops.CK)
	}
	// R draws one key per shard, S draws two.
	if r.Counters.KeyGens != costmodel.ShardedKeyGens(k, 1) || s.Counters.KeyGens != costmodel.ShardedKeyGens(k, 2) {
		t.Errorf("keygens = %d/%d, want %d/%d",
			r.Counters.KeyGens, s.Counters.KeyGens, costmodel.ShardedKeyGens(k, 1), costmodel.ShardedKeyGens(k, 2))
	}

	g := group.TestGroup()
	extLen := kenc.NewHybrid(g).CiphertextLen(extPlainLen)
	if extLen < 0 {
		t.Fatalf("cipher rejects %d-byte payloads", extPlainLen)
	}
	want := costmodel.ShardedJoinWireCost(shardS, shardR, g.ElementLen(), extLen, chunk)
	checkWireCost(t, want, r.Counters, s.Counters)
}

func TestShardSplitSumMatchesAnnouncement(t *testing.T) {
	// The leakage object's input is exactly what the peer observes: the
	// per-shard sub-handshake sizes.  They must sum to the outer total
	// for any input set (checkShardSizeSum enforces the same invariant
	// on live runs).
	vR := vals("leak-", 100)
	for _, k := range []int{2, 8, 64} {
		sizes := shardSizes(vR, k)
		sum := 0
		for _, n := range sizes {
			sum += n
		}
		if sum != len(vR) {
			t.Errorf("k=%d: shard sizes sum to %d, want %d", k, sum, len(vR))
		}
	}
}
