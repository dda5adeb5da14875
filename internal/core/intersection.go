package core

import (
	"context"
	"fmt"
	"math/big"

	"minshare/internal/commutative"
	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// IntersectionResult is what party R learns from the intersection
// protocol: the set V_S ∩ V_R and the size |V_S| — exactly the contract
// of Section 2.2.1 — and nothing else.
type IntersectionResult struct {
	// Values is V_S ∩ V_R, in R's input order.
	Values [][]byte
	// SenderSetSize is |V_S| (part of the permitted information I).
	SenderSetSize int
	// SenderDataVersion is the data version S announced in its
	// handshake header (0 if S is unversioned).  A receiver that caches
	// results can compare it across runs to detect a stale counterpart.
	SenderDataVersion uint64
}

func (r *IntersectionResult) peerSetSize() int { return r.SenderSetSize }

// IntersectionReceiver runs party R of the intersection protocol of
// Section 3.3 over conn.  values may contain duplicates; the distinct
// set V_R is used, as the paper prescribes.  The engine (runReceiver)
// executes steps 1-5; step 6 — select all v ∈ V_R whose double
// encryption f_eS(f_eR(h(v))) lands in Z_S — is intersectionState.
func IntersectionReceiver(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*IntersectionResult, error) {
	return execute(ctx, cfg, conn, protoIntersection, true, dedup(values), nil, oneShot(newIntersectionState), mergeIntersection)
}

// IntersectionSender runs party S of the intersection protocol of
// Section 3.3 over conn.  S learns only |V_R|.
func IntersectionSender(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*SenderInfo, error) {
	return execute(ctx, cfg, conn, protoIntersection, false, dedup(values), nil, setSender, mergeSenderInfo)
}

// intersectionState is the receiver-side state of one intersection run
// that a standing query retains: everything needed to fold a pushed
// delta into the result for O(churn) work.  zSet holds the
// double-encrypted sender values f_eR(f_eS(h(v))); doubles[pos] is the
// double encryption of R's own value at sorted position pos, and order
// maps sorted positions back to input indices.
type intersectionState struct {
	vR       [][]byte
	eR       *commutative.Key
	order    []int
	doubles  []*big.Int
	zSet     map[string]struct{}
	peerSize int
	ky       *keyer
}

// newIntersectionState indexes Z_S for the membership test of step 6.
func newIntersectionState(ctx context.Context, s *session, run *receiverRun) (standingState[*IntersectionResult], error) {
	sp := obs.StartSpan(ctx, "match")
	defer sp.End()
	st := &intersectionState{
		vR: run.vR, eR: run.eR, order: run.order, doubles: run.reply.a, peerSize: run.peerSize,
		zSet: make(map[string]struct{}, len(run.zS)),
		ky:   newKeyer(s.cfg.Group),
	}
	for _, z := range run.zS {
		st.zSet[st.ky.key(z)] = struct{}{}
	}
	return st, nil
}

// result evaluates step 6 over the current zSet.
func (st *intersectionState) result(peerVersion uint64) *IntersectionResult {
	inIntersection := make([]bool, len(st.vR))
	for pos, idx := range st.order {
		if _, hit := st.zSet[st.ky.key(st.doubles[pos])]; hit {
			inIntersection[idx] = true
		}
	}
	res := &IntersectionResult{SenderSetSize: st.peerSize, SenderDataVersion: peerVersion}
	for i, v := range st.vR {
		if inIntersection[i] {
			res.Values = append(res.Values, v)
		}
	}
	return res
}

// fold applies one pushed update: lift each pushed f_eS(h(v)) into the
// double-encrypted domain with the retained e_R — by commutativity
// f_eR(f_eS(h(v))) is exactly the Z_S representation — then update
// membership by map surgery.  That is (nIns+nDel) encryptions and no
// oracle hashes per update (costmodel.IntersectionUpdateOps).
func (st *intersectionState) fold(ctx context.Context, s *session, u wire.SubUpdate) error {
	if u.HasExt {
		return fmt.Errorf("%w: ext payloads in an intersection sub update", ErrMalformedReply)
	}
	ins, err := s.encryptSet(ctx, st.eR, u.Upserts)
	if err != nil {
		return err
	}
	del, err := s.encryptSet(ctx, st.eR, u.Deleted)
	if err != nil {
		return err
	}
	for _, z := range ins {
		k := st.ky.key(z)
		if _, dup := st.zSet[k]; dup {
			return fmt.Errorf("%w: pushed insert already present", ErrMalformedReply)
		}
		st.zSet[k] = struct{}{}
	}
	for _, z := range del {
		k := st.ky.key(z)
		if _, ok := st.zSet[k]; !ok {
			return fmt.Errorf("%w: pushed delete not present", ErrMalformedReply)
		}
		delete(st.zSet, k)
	}
	st.peerSize += len(ins) - len(del)
	return nil
}

// mergeIntersection folds per-shard intersections back into R's input
// order: buckets partition vR, so each match names one input value.
func mergeIntersection(vR [][]byte, parts []*IntersectionResult, peerTotal int, peerVersion uint64) *IntersectionResult {
	matched := make(map[string]bool)
	for _, part := range parts {
		for _, v := range part.Values {
			matched[string(v)] = true
		}
	}
	res := &IntersectionResult{SenderSetSize: peerTotal, SenderDataVersion: peerVersion}
	for _, v := range vR {
		if matched[string(v)] {
			res.Values = append(res.Values, v)
		}
	}
	return res
}
