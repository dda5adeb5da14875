package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"minshare/internal/obs"
	"minshare/internal/transport"
)

// Shard-parallel protocol execution.
//
// The paper's application estimates (Section 6.2) assume "P processors
// that we can utilize in parallel"; this file supplies the distribution
// mechanism.  The random oracle h doubles as a partitioner: both
// parties split their value sets into k buckets by a shared hash prefix
// of h(v), so V_S ∩ V_R = ∪_i (V_S,i ∩ V_R,i) exactly — a value's
// bucket depends only on h(v), which both parties compute identically —
// and one logical run becomes k independent sub-protocols.  The
// sub-sessions run concurrently over a single connection, multiplexed
// by transport.Mux with per-shard flow control, and a coordinator
// merges the sub-results back into the unsharded result shape.
//
// Wire compatibility: the outer handshake announces the shard count
// (wire.Header.Shards); each sub-session then runs the classic
// protocol, byte-identical to an unsharded run of its bucket, inside
// its mux stream.  A session with Shards <= 1 never reaches this file
// and is byte-identical to pre-shard releases end to end.
//
// Leakage: each sub-handshake announces that bucket's size, so the
// peer learns the per-shard split of the set — the only information a
// sharded run reveals beyond its unsharded counterpart.  The split is
// a uniform multinomial over k bins (the partitioner hashes through
// SHA-256), and leakage.ShardSplit quantifies the bits it carries.
//
// Failure atomicity: one failing shard cancels every sibling via the
// fan-out context, the mux poisons all streams on any transport error,
// and the coordinator returns only an error — never a partial merge.

// shardOf maps one hashed element to its bucket.  The prefix is taken
// from SHA-256 of the element's fixed-width wire encoding rather than
// from h(v)'s own top bits: h(v) is uniform on [0, p) (or on the curve
// encoding), so its raw top bits are biased wherever the modulus is not
// a power of two, and the paper's oracle already models h as random —
// deriving the prefix through a hash keeps every bucket binomially
// balanced regardless of the group.
func shardOf(buf []byte, k int) int {
	sum := sha256.Sum256(buf)
	return int(binary.BigEndian.Uint64(sum[:8]) % uint64(k))
}

// shardPartition splits values into k buckets keyed by the shard of
// h(v), returning for each bucket the values and their indices in the
// input slice (for order-preserving merges).  Hashing goes through the
// session's (observed) oracle, so the partition pass is visible to the
// cost accounting: a sharded run pays each value's oracle hash twice,
// once here and once inside its sub-protocol.
func (s *session) shardPartition(values [][]byte, k int) (buckets [][][]byte, indices [][]int) {
	xs := s.cfg.Oracle.HashAll(values)
	buckets = make([][][]byte, k)
	indices = make([][]int, k)
	buf := make([]byte, s.codec.ElemLen())
	for i, x := range xs {
		x.FillBytes(buf)
		sh := shardOf(buf, k)
		buckets[sh] = append(buckets[sh], values[i])
		indices[sh] = append(indices[sh], i)
	}
	return buckets, indices
}

// lockedReader serializes a shared randomness source across the
// concurrent sub-sessions.  crypto/rand.Reader is already safe, so the
// wrapper is only applied to caller-supplied sources (seeded test
// streams), which are typically not.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}

// shardBaseConfig prepares the template config the sub-sessions derive
// from: sub-runs are themselves unsharded, and a shared Rand must
// tolerate concurrent key draws.
func shardBaseConfig(cfg Config) Config {
	cfg.Shards = 0
	if cfg.Rand != nil {
		cfg.Rand = &lockedReader{r: cfg.Rand}
	}
	return cfg
}

// shardConfig specializes the template for bucket i of k.  The cache
// key gains the shard coordinates so cached sender state replays only
// for the same partition of the same partitioning (see SetCacheKey).
func shardConfig(cfg Config, i, k int) Config {
	cfg.CacheKey.Shard = uint8(i)
	cfg.CacheKey.Shards = uint8(k)
	return cfg
}

// shardFanout runs one sub-protocol per shard concurrently and gathers
// their results.  The first failure cancels every sibling — sub-session
// sends and receives observe the fan-out context, and the failing
// shard's own abort has already notified the peer's counterpart, whose
// coordinator cancels symmetrically — so a sharded session fails
// atomically on both sides.  shardFanout returns either all k results
// or the root-cause error, never a mix.
func shardFanout[R any](ctx context.Context, k int, run func(ctx context.Context, i int) (R, error)) ([]R, error) {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]R, k)
	var (
		wg       sync.WaitGroup
		failOnce sync.Once
		firstErr error
	)
	wg.Add(k)
	for i := 0; i < k; i++ {
		go func(i int) {
			defer wg.Done()
			sp := obs.StartSpan(fctx, fmt.Sprintf("shard-%d", i))
			defer sp.End()
			r, err := run(fctx, i)
			if err != nil {
				// First error wins: later failures are usually the
				// cancellation echo of this one.
				failOnce.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// merger folds the k per-shard results of a role back into the
// unsharded result shape.  in is the coordinator's full (prepared) input,
// for merges that restore input order; peerTotal and peerVersion are
// what the peer's outer handshake announced.
type merger[R sized] func(in [][]byte, parts []R, peerTotal int, peerVersion uint64) R

// runSharded is the shard coordinator of every protocol and role: outer
// handshake on the raw conn (announcing the total size and the shard
// count), the mux — after which no frame touches the raw conn —
// partition by hash prefix, one sub-run of the role per bucket, the
// size-sum check, and the merge.
func runSharded[R sized](ctx context.Context, cfg Config, conn transport.Conn, p protocol, sendFirst bool, vs, exts [][]byte, run role[R], merge merger[R]) (R, error) {
	var zero R
	k := cfg.Shards
	if k < 2 || k > transport.MaxShards {
		return zero, fmt.Errorf("core: shard count %d out of range [2, %d]", k, transport.MaxShards)
	}
	outer := newSession(ctx, cfg, conn)
	peerTotal, err := outer.handshake(ctx, p.proto, len(vs), sendFirst)
	if err != nil {
		return zero, err
	}
	mux, err := transport.NewMux(conn, k)
	if err != nil {
		return zero, outer.abort(ctx, err)
	}
	mux.Start()
	defer mux.Stop()

	buckets, indices := outer.shardPartition(vs, k)
	extBuckets := make([][][]byte, k)
	if exts != nil {
		for sh, idx := range indices {
			extBuckets[sh] = make([][]byte, len(idx))
			for j, i := range idx {
				extBuckets[sh][j] = exts[i]
			}
		}
	}
	base := shardBaseConfig(cfg)
	parts, err := shardFanout(ctx, k, func(ctx context.Context, i int) (R, error) {
		return run(ctx, newSession(ctx, shardConfig(base, i, k), mux.Shard(i)), p, buckets[i], extBuckets[i])
	})
	if err != nil {
		return zero, err
	}

	// The per-shard sizes the peer's sub-handshakes announced must add up
	// to the total its outer handshake declared.  A mismatch means the
	// peer partitioned a different set than it announced (or partitioned
	// dishonestly); fail rather than build a result from inconsistent
	// claims.
	sum := 0
	for _, part := range parts {
		sum += part.peerSetSize()
	}
	if sum != peerTotal {
		return zero, fmt.Errorf("%w: peer shard sizes sum to %d, its handshake announced %d", ErrMalformedReply, sum, peerTotal)
	}
	return merge(vs, parts, peerTotal, outer.peerVersion), nil
}
