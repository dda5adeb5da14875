package core

import (
	"context"

	"minshare/internal/obs"
	"minshare/internal/transport"
)

// JoinSizeResult is what party R learns from the equijoin-size protocol
// of Section 5.2.  Beyond |T_S ⋈ T_R| and |V_S| (as a multiset), R also
// learns the distribution of duplicates in T_S.A — the leak the paper
// explicitly characterizes.  Package leakage computes exactly which
// partition-level overlaps that distribution reveals.
type JoinSizeResult struct {
	// JoinSize is |T_S ⋈ T_R| restricted to the join attribute, i.e.
	// Σ_v dup_R(v)·dup_S(v).
	JoinSize int
	// SenderMultisetSize is the number of rows in T_S.A (with duplicates).
	SenderMultisetSize int
	// SenderDuplicateDistribution maps a duplicate count d to the number
	// of distinct values in V_S having exactly d duplicates: the
	// distribution R inevitably observes from the repeated encryptions.
	SenderDuplicateDistribution map[int]int
	// SenderDataVersion is the data version S announced in its
	// handshake header (0 if S is unversioned).
	SenderDataVersion uint64
}

func (r *JoinSizeResult) peerSetSize() int { return r.SenderMultisetSize }

// JoinSizeSenderInfo is what party S learns: |T_R.A| as a multiset and
// the distribution of duplicates in T_R.A.
type JoinSizeSenderInfo struct {
	// ReceiverMultisetSize is the number of rows in T_R.A.
	ReceiverMultisetSize int
	// ReceiverDuplicateDistribution maps duplicate count to number of
	// distinct values of V_R with that count.
	ReceiverDuplicateDistribution map[int]int
}

func (i *JoinSizeSenderInfo) peerSetSize() int { return i.ReceiverMultisetSize }

// EquijoinSizeReceiver runs party R of the equijoin-size protocol of
// Section 5.2: the intersection-size protocol run on multisets, with the
// join size computed in the final step.  values is T_R.A *with*
// duplicates: equal values hash (and encrypt) to equal elements, so each
// party sees the other's duplicate structure — the leak the paper
// accepts for this protocol.
func EquijoinSizeReceiver(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*JoinSizeResult, error) {
	return execute(ctx, cfg, conn, protoEquijoinSize, true, values, nil, equijoinSizeReceiver, mergeJoinSizes)
}

// equijoinSizeReceiver is step 6 as modified by Section 5.2: Σ over
// distinct doubly-encrypted values of count_R · count_S.
func equijoinSizeReceiver(ctx context.Context, s *session, p protocol, mR, _ [][]byte) (*JoinSizeResult, error) {
	run, err := s.runReceiver(ctx, p, mR)
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan(ctx, "match")
	defer sp.End()
	ky := newKeyer(s.cfg.Group)
	return &JoinSizeResult{
		JoinSize:                    overlap(run.reply.a, run.zS, ky),
		SenderMultisetSize:          run.peerSize,
		SenderDuplicateDistribution: duplicateDistribution(multisetCounts(run.peer.a, ky)),
		SenderDataVersion:           s.peerVersion,
	}, nil
}

// EquijoinSizeSender runs party S of the equijoin-size protocol of
// Section 5.2.  values is T_S.A *with* duplicates.  (The cache slot is
// per-protocol, so the multiset state never aliases the deduplicated
// state of the set protocols.)
func EquijoinSizeSender(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*JoinSizeSenderInfo, error) {
	return execute(ctx, cfg, conn, protoEquijoinSize, false, values, nil, equijoinSizeSender, mergeJoinSizeInfos)
}

func equijoinSizeSender(ctx context.Context, s *session, p protocol, mS, _ [][]byte) (*JoinSizeSenderInfo, error) {
	run, err := s.runSender(ctx, p, mS, nil)
	if err != nil {
		return nil, err
	}
	return &JoinSizeSenderInfo{
		ReceiverMultisetSize:          run.peerSize,
		ReceiverDuplicateDistribution: duplicateDistribution(multisetCounts(run.yR, newKeyer(s.cfg.Group))),
	}, nil
}

// Distinct values never span shards, so per-shard join sizes add and the
// per-shard duplicate distributions, being over disjoint value sets,
// merge by addition too.

func mergeJoinSizes(_ [][]byte, parts []*JoinSizeResult, peerTotal int, peerVersion uint64) *JoinSizeResult {
	res := &JoinSizeResult{SenderMultisetSize: peerTotal, SenderDuplicateDistribution: make(map[int]int), SenderDataVersion: peerVersion}
	for _, part := range parts {
		res.JoinSize += part.JoinSize
		addDistribution(res.SenderDuplicateDistribution, part.SenderDuplicateDistribution)
	}
	return res
}

func mergeJoinSizeInfos(_ [][]byte, parts []*JoinSizeSenderInfo, peerTotal int, _ uint64) *JoinSizeSenderInfo {
	info := &JoinSizeSenderInfo{ReceiverMultisetSize: peerTotal, ReceiverDuplicateDistribution: make(map[int]int)}
	for _, part := range parts {
		addDistribution(info.ReceiverDuplicateDistribution, part.ReceiverDuplicateDistribution)
	}
	return info
}

func addDistribution(into, from map[int]int) {
	for d, n := range from {
		into[d] += n
	}
}

// duplicateDistribution maps duplicate count d to the number of distinct
// keys occurring exactly d times — the "distribution of duplicates" of
// Section 5.2.
func duplicateDistribution(counts map[string]int) map[int]int {
	dist := make(map[int]int)
	for _, c := range counts {
		dist[c]++
	}
	return dist
}

// DuplicateDistributionValues is the duplicate distribution of plaintext
// application values; the leakage analysis compares it with what the
// protocol's encrypted multisets reveal.
func DuplicateDistributionValues(values [][]byte) map[int]int {
	counts := make(map[string]int, len(values))
	for _, v := range values {
		counts[string(v)]++
	}
	return duplicateDistribution(counts)
}
