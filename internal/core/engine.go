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

// The protocol engine.
//
// The paper defines its protocols as deltas of one another: §5.1.1 is
// "§3.3 with step 4(b) reordered", §5.2 is "§5.1.1 on multisets", and
// §4.3 shares steps 1–3 with §3.3.  The engine is written the same way:
// one receiver body (runReceiver) and one sender body (runSender) that
// consult a protocol descriptor where the protocols differ, with each
// protocol's own file reduced to its result type, its input preparation
// (set or multiset), and its match rule over what the engine received.
// execute adds the one orthogonal mode — shard-parallel execution — in
// front of any role.

// protocol is what distinguishes the four protocols on the wire.
type protocol struct {
	proto wire.Protocol
	// aligned: S's reply about R's values preserves the order R sent
	// them in, so R can pair each reply with its value (§3.3 step 4(b),
	// §4.3 step 4).  The size protocols instead have S re-sort the
	// reply, detaching it from the y's — the whole of §5.1.1.
	aligned bool
	// ext: S attaches ext(v) to its values (§4.3): a second key e'_S,
	// pair-valued replies, and ⟨f_eS(h(v)), K(κ(v), ext(v))⟩ in place
	// of the bare Y_S.
	ext bool
}

var (
	protoIntersection     = protocol{proto: wire.ProtoIntersection, aligned: true}
	protoEquijoin         = protocol{proto: wire.ProtoEquijoin, aligned: true, ext: true}
	protoIntersectionSize = protocol{proto: wire.ProtoIntersectionSize}
	// The equijoin-size protocol is the intersection-size protocol fed
	// multisets: its entry points skip the dedup, and nothing else
	// differs until the match rule.
	protoEquijoinSize = protocol{proto: wire.ProtoEquijoinSize}
)

// sized is implemented by every role result: the peer's announced set
// size, which a sharded run sums across shards and checks against the
// outer handshake.
type sized interface{ peerSetSize() int }

// role is one party's half of protocol p over an established session;
// exts is non-nil only for the equijoin sender.
type role[R sized] func(ctx context.Context, s *session, p protocol, vs, exts [][]byte) (R, error)

// execute runs a role over conn: as the classic single pipeline, or —
// when cfg.Shards > 1 — as that many sub-runs of the same role under
// runSharded, folded back into one result by merge.
func execute[R sized](ctx context.Context, cfg Config, conn transport.Conn, p protocol, sendFirst bool, vs, exts [][]byte, run role[R], merge merger[R]) (R, error) {
	if cfg.Shards > 1 {
		return runSharded(ctx, cfg, conn, p, sendFirst, vs, exts, run, merge)
	}
	return run(ctx, newSession(ctx, cfg, conn), p, vs, exts)
}

// receiverRun is what party R holds when the exchange phase ends, before
// any protocol-specific matching.
type receiverRun struct {
	vR       [][]byte
	eR       *commutative.Key
	order    []int // order[pos] = index in vR of the value sent at sorted position pos
	peerSize int
	// peer is S's own set as received, sorted by its first component:
	// Y_S, or for the equijoin the ⟨f_eS(h(v)), c(v)⟩ pairs.
	peer vec
	// zS is Z_S = f_eR(Y_S), in the order of peer (element protocols).
	zS []*big.Int
	// reply is S's answer about R's own values.  Aligned protocols:
	// entry pos belongs to vR[order[pos]] — f_eS(f_eR(h(v))) for the
	// intersection; for the equijoin, already stripped of e_R,
	// ⟨f_eS(h(v)), f_e'S(h(v))⟩ in a and b.  Size protocols: Z_R, sorted.
	reply vec
}

// runReceiver is party R of every protocol up to the match rule.  Step
// numbers follow Section 3.3 (the equijoin's Section 4.3 numbering is
// one higher from step 5 on):
//
//	1-2. hash V_R (with the §3.2.2 collision check), draw e_R, compute
//	     Y_R = f_eR(h(V_R))
//	3.   send Y_R to S, reordered lexicographically
//	4-5. receive S's own set and S's reply about Y_R, re-encrypting
//	     (element protocols) or stripping e_R (equijoin) run by run
//	     while the next run is in flight
func (s *session) runReceiver(ctx context.Context, p protocol, vR [][]byte) (*receiverRun, error) {
	peerSize, err := s.handshake(ctx, p.proto, len(vR), true)
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan(ctx, "hash-to-group")
	xR, err := s.hashSet(vR)
	sp.End()
	if err != nil {
		return nil, s.abort(ctx, err)
	}
	eR, err := s.cfg.Scheme.GenerateKey(s.cfg.Rand)
	if err != nil {
		return nil, s.abort(ctx, fmt.Errorf("core: generating e_R: %w", err))
	}
	sp = obs.StartSpan(ctx, "bulk-encrypt")
	yR, err := s.encryptSet(ctx, eR, xR)
	sp.End()
	if err != nil {
		return nil, s.abort(ctx, err)
	}

	// Step 3.  Remember which value sits at each sorted position so an
	// aligned reply can be matched back ("S does not retransmit the y's
	// back but just preserves the original order", Section 6.1).
	sp = obs.StartSpan(ctx, "exchange")
	defer sp.End()
	run := &receiverRun{vR: vR, eR: eR, order: sortIndicesByElem(yR), peerSize: peerSize}
	sortedYR := make([]*big.Int, len(yR))
	for pos, idx := range run.order {
		sortedYR[pos] = yR[idx]
	}
	if err := s.sendElems(ctx, sortedYR); err != nil {
		return nil, err
	}

	if p.ext {
		// f_eR^{-1}(f_eS(f_eR(h(v)))) = f_eS(h(v)), likewise for e'_S.
		if run.reply, err = s.recvPairsDecrypt(ctx, eR, len(vR), "f_eS(Y_R)"); err != nil {
			return nil, err
		}
		run.peer, err = s.recvVec(ctx, wire.KindExtPairs, peerSize, "f_eS(h(V_S))", true, true, nil)
		return run, err
	}
	if run.peer.a, run.zS, err = s.recvReencrypt(ctx, eR, peerSize, "Y_S"); err != nil {
		return nil, err
	}
	run.reply.a, err = s.recvElems(ctx, len(vR), "f_eS(Y_R)", !p.aligned, true)
	return run, err
}

// senderRun is what party S holds when its half of a protocol ends.
type senderRun struct {
	peerSize int
	// own is S's encrypted own set under its pinned key(s), as shipped.
	own *CacheEntry
	// yR is R's encrypted set as received (element protocols).
	yR []*big.Int
}

// runSender is party S of every protocol:
//
//	1-2. the sender prelude — h(V_S), e_S (and e'_S), Y_S sorted —
//	     replayed from the encrypted-set cache, delta-upgraded from a
//	     stale entry, or computed cold (ownSetKeys + ownSetBuild)
//	4(a). ship Y_S, sorted, while Y_R arrives (equijoin: step 5, the
//	     ⟨f_eS(h(v)), K(κ(v), ext(v))⟩ pairs, after the reply)
//	4(b). reply f_eS(Y_R): aligned with Y_R, re-sorted (size
//	     protocols), or as ⟨f_eS(y), f_e'S(y)⟩ pairs (equijoin)
//
// The equijoin answers R's pairs between the two halves of a cold
// prelude, so R strips its layer while S is still encrypting its table.
func (s *session) runSender(ctx context.Context, p protocol, vS, exts [][]byte) (*senderRun, error) {
	peerSize, err := s.handshake(ctx, p.proto, len(vS), false)
	if err != nil {
		return nil, err
	}
	keys, err := s.ownSetKeys(ctx, vS, p.ext)
	if err != nil {
		return nil, err
	}
	run := &senderRun{peerSize: peerSize}

	if p.ext {
		sp := obs.StartSpan(ctx, "exchange")
		err = s.recvEncryptPairsSend(ctx, keys.key, keys.extKey, peerSize, "Y_R")
		sp.End()
		if err != nil {
			return nil, err
		}
		if run.own, err = s.ownSetBuild(ctx, keys, exts); err != nil {
			return nil, err
		}
		sp = obs.StartSpan(ctx, "send-pairs")
		defer sp.End()
		return run, s.sendVec(ctx, wire.KindExtPairs, vec{a: run.own.Set.Elems(), exts: run.own.Set.Payload()})
	}

	if run.own, err = s.ownSetBuild(ctx, keys, nil); err != nil {
		return nil, err
	}
	// The two vectors are independent, so streaming mode runs the halves
	// full-duplex; legacy mode keeps the lock-step recv-then-send order.
	sp := obs.StartSpan(ctx, "exchange")
	err = s.duplex(ctx, true,
		func(ctx context.Context) error { return s.sendElems(ctx, run.own.Set.Elems()) },
		func(ctx context.Context) (rerr error) {
			// Every y is encrypted below, which tests its membership.
			run.yR, rerr = s.recvElems(ctx, peerSize, "Y_R", true, false)
			return rerr
		})
	sp.End()
	if err != nil {
		return nil, err
	}

	if p.aligned {
		// Preserving the received order lets each chunk go on the wire
		// while the next is still exponentiating.
		return run, s.streamEncryptSend(ctx, keys.key, run.yR, "Y_R")
	}
	// Sorting needs the complete vector, so the encryption cannot
	// overlap this send; the sorted result still streams out chunked.
	sp = obs.StartSpan(ctx, "re-encrypt")
	defer sp.End()
	zR, err := s.encryptReceived(ctx, keys.key, run.yR, 0, "Y_R")
	if err != nil {
		return nil, s.abort(ctx, err)
	}
	commutative.SortAligned(zR, nil)
	return run, s.sendElems(ctx, zR)
}

// SenderInfo is what party S learns from a protocol run: only |V_R|.
type SenderInfo struct {
	// ReceiverSetSize is |V_R|.
	ReceiverSetSize int
}

func (i *SenderInfo) peerSetSize() int { return i.ReceiverSetSize }

// setSender is the sender role of the protocols whose S learns only
// |V_R|.
func setSender(ctx context.Context, s *session, p protocol, vS, exts [][]byte) (*SenderInfo, error) {
	run, err := s.runSender(ctx, p, vS, exts)
	if err != nil {
		return nil, err
	}
	return &SenderInfo{ReceiverSetSize: run.peerSize}, nil
}

// mergeSenderInfo folds the shards of a setSender run.
func mergeSenderInfo(_ [][]byte, _ []*SenderInfo, peerTotal int, _ uint64) *SenderInfo {
	return &SenderInfo{ReceiverSetSize: peerTotal}
}
