package core

import (
	"context"

	"minshare/internal/obs"
	"minshare/internal/transport"
)

// SizeResult is what party R learns from the intersection-size protocol:
// the two sizes of Section 2.2.1 and nothing about membership.
type SizeResult struct {
	// IntersectionSize is |V_S ∩ V_R|.
	IntersectionSize int
	// SenderSetSize is |V_S|.
	SenderSetSize int
	// SenderDataVersion is the data version S announced in its
	// handshake header (0 if S is unversioned).
	SenderDataVersion uint64
}

func (r *SizeResult) peerSetSize() int { return r.SenderSetSize }

// IntersectionSizeReceiver runs party R of the intersection-size
// protocol of Section 5.1.1.  The difference from the intersection
// protocol is confined to step 4(b): S returns only the lexicographically
// reordered encryptions of R's values, not paired with the originals, so
// R cannot match them back to its own values and learns only the overlap
// cardinality.
func IntersectionSizeReceiver(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*SizeResult, error) {
	return execute(ctx, cfg, conn, protoIntersectionSize, true, dedup(values), nil, intersectionSizeReceiver, mergeSizes)
}

// intersectionSizeReceiver is step 6: |Z_S ∩ Z_R| = |V_S ∩ V_R|.
func intersectionSizeReceiver(ctx context.Context, s *session, p protocol, vR, _ [][]byte) (*SizeResult, error) {
	run, err := s.runReceiver(ctx, p, vR)
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan(ctx, "match")
	defer sp.End()
	return &SizeResult{
		IntersectionSize:  overlap(run.reply.a, run.zS, newKeyer(s.cfg.Group)),
		SenderSetSize:     run.peerSize,
		SenderDataVersion: s.peerVersion,
	}, nil
}

// IntersectionSizeSender runs party S of the intersection-size protocol
// of Section 5.1.1.
func IntersectionSizeSender(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*SenderInfo, error) {
	return execute(ctx, cfg, conn, protoIntersectionSize, false, dedup(values), nil, setSender, mergeSenderInfo)
}

// mergeSizes folds per-shard sizes: the buckets are disjoint, so the
// overlaps add.
func mergeSizes(_ [][]byte, parts []*SizeResult, peerTotal int, peerVersion uint64) *SizeResult {
	res := &SizeResult{SenderSetSize: peerTotal, SenderDataVersion: peerVersion}
	for _, part := range parts {
		res.IntersectionSize += part.IntersectionSize
	}
	return res
}
