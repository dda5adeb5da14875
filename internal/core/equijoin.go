package core

import (
	"bytes"
	"context"
	"fmt"
	"math/big"

	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// JoinRecord is one (value, extra-information) pair on S's side of the
// equijoin: ext(v) is everything in T_S pertaining to v — in the paper's
// words, "all records in T_S where T_S.A = v" — serialized by the caller
// (package reldb provides the serialization used by the applications).
type JoinRecord struct {
	Value []byte
	Ext   []byte
}

// JoinMatch is one joined value as learned by R: the value, and S's
// decrypted ext(v).
type JoinMatch struct {
	Value []byte
	Ext   []byte
}

// JoinResult is what party R learns from the equijoin protocol:
// V_S ∩ V_R with ext(v) for each element, plus |V_S|.
type JoinResult struct {
	// Matches holds one entry per v ∈ V_S ∩ V_R, in R's input order.
	Matches []JoinMatch
	// SenderSetSize is |V_S|.
	SenderSetSize int
	// SenderDataVersion is the data version S announced in its
	// handshake header (0 if S is unversioned).
	SenderDataVersion uint64
}

func (r *JoinResult) peerSetSize() int { return r.SenderSetSize }

// EquijoinReceiver runs party R of the equijoin protocol of Section 4.3.
// The engine (runReceiver) executes steps 1-6, leaving R with
// ⟨f_eS(h(v)), f_e'S(h(v))⟩ per v ∈ V_R and S's ⟨f_eS(h(v)), K(κ(v),
// ext(v))⟩ pairs; equijoinState is step 7 — match the two on the first
// entry and decrypt ext(v) with κ(v) = f_e'S(h(v)) — and the caller
// computes T_S ⋈ T_R from the returned matches (step 8).
func EquijoinReceiver(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*JoinResult, error) {
	return execute(ctx, cfg, conn, protoEquijoin, true, dedup(values), nil, oneShot(newEquijoinState), mergeJoins)
}

// EquijoinSender runs party S of the equijoin protocol of Section 4.3.
// records may repeat a value only with an identical Ext; conflicting
// duplicates are rejected, since ext(v) is defined per distinct value.
func EquijoinSender(ctx context.Context, cfg Config, conn transport.Conn, records []JoinRecord) (*SenderInfo, error) {
	vS, exts, err := dedupRecords(records)
	if err != nil {
		return nil, err
	}
	return execute(ctx, cfg, conn, protoEquijoin, false, vS, exts, setSender, mergeSenderInfo)
}

// equijoinState is the receiver-side state of one equijoin run that a
// standing query retains.  The pushed elements of a SubUpdate arrive as
// f_eS(h(v)) — exactly the keys of extByElem — so folding in a delta
// needs no exponentiations at all: update the map, then re-decrypt only
// the affected positions with the retained κ values.
type equijoinState struct {
	vR        [][]byte
	order     []int
	kappas    []*big.Int
	extByElem map[string][]byte
	matched   []*JoinMatch
	posByKey  map[string]int
	peerSize  int
	ky        *keyer
}

// newEquijoinState is step 7: index S's pairs by first entry and match.
func newEquijoinState(ctx context.Context, s *session, run *receiverRun) (standingState[*JoinResult], error) {
	sp := obs.StartSpan(ctx, "match-join")
	defer sp.End()
	st := &equijoinState{
		vR: run.vR, order: run.order, kappas: run.reply.b, peerSize: run.peerSize,
		extByElem: make(map[string][]byte, run.peer.len()),
		matched:   make([]*JoinMatch, len(run.vR)),
		posByKey:  make(map[string]int, len(run.vR)),
		ky:        newKeyer(s.cfg.Group),
	}
	for i, e := range run.peer.a {
		st.extByElem[st.ky.key(e)] = run.peer.exts[i]
	}
	for pos, single := range run.reply.a {
		k := st.ky.key(single)
		st.posByKey[k] = pos
		if ct, hit := st.extByElem[k]; hit {
			if err := st.match(s, pos, ct); err != nil {
				return nil, s.abort(ctx, err)
			}
		}
	}
	return st, nil
}

// match decrypts S's payload ciphertext for R's value at sorted position
// pos and records the joined pair.
func (st *equijoinState) match(s *session, pos int, ct []byte) error {
	ext, err := s.cfg.Cipher.Decrypt(st.kappas[pos], ct)
	if err != nil {
		return fmt.Errorf("core: decrypting ext(v): %w", err)
	}
	if s.counters != nil {
		s.counters.AddPayloadDecrypts(1)
	}
	idx := st.order[pos]
	st.matched[idx] = &JoinMatch{Value: st.vR[idx], Ext: ext}
	return nil
}

// result assembles the matches in R's input order.
func (st *equijoinState) result(peerVersion uint64) *JoinResult {
	res := &JoinResult{SenderSetSize: st.peerSize, SenderDataVersion: peerVersion}
	for _, jm := range st.matched {
		if jm != nil {
			res.Matches = append(res.Matches, *jm)
		}
	}
	return res
}

// fold applies one pushed update.  The pushed elements are f_eS(h(v)) —
// the exact key domain of the retained index — so R pays no
// exponentiations, only one payload decryption per changed match.
func (st *equijoinState) fold(_ context.Context, s *session, u wire.SubUpdate) error {
	if !u.HasExt && len(u.Upserts) > 0 {
		return fmt.Errorf("%w: equijoin sub update lacks ext payloads", ErrMalformedReply)
	}
	inserted := 0
	for i, e := range u.Upserts {
		k := st.ky.key(e)
		if _, present := st.extByElem[k]; !present {
			inserted++
		}
		st.extByElem[k] = u.UpsertExt[i]
		if pos, mine := st.posByKey[k]; mine {
			if err := st.match(s, pos, u.UpsertExt[i]); err != nil {
				return err
			}
		}
	}
	for _, e := range u.Deleted {
		k := st.ky.key(e)
		if _, present := st.extByElem[k]; !present {
			return fmt.Errorf("%w: pushed delete not present", ErrMalformedReply)
		}
		delete(st.extByElem, k)
		if pos, mine := st.posByKey[k]; mine {
			st.matched[st.order[pos]] = nil
		}
	}
	st.peerSize += inserted - len(u.Deleted)
	return nil
}

// mergeJoins folds per-shard joins back into R's input order.
func mergeJoins(vR [][]byte, parts []*JoinResult, peerTotal int, peerVersion uint64) *JoinResult {
	matched := make(map[string]JoinMatch)
	for _, part := range parts {
		for _, m := range part.Matches {
			matched[string(m.Value)] = m
		}
	}
	res := &JoinResult{SenderSetSize: peerTotal, SenderDataVersion: peerVersion}
	for _, v := range vR {
		if m, ok := matched[string(v)]; ok {
			res.Matches = append(res.Matches, m)
		}
	}
	return res
}

// dedupRecords splits records into parallel value/ext slices with
// duplicates removed, rejecting a value that appears with two different
// Ext payloads.
func dedupRecords(records []JoinRecord) (values [][]byte, exts [][]byte, err error) {
	seen := make(map[string]int, len(records))
	for _, rec := range records {
		k := string(rec.Value)
		if i, dup := seen[k]; dup {
			if !bytes.Equal(exts[i], rec.Ext) {
				return nil, nil, fmt.Errorf("core: value %q has conflicting ext payloads", rec.Value)
			}
			continue
		}
		seen[k] = len(values)
		values = append(values, rec.Value)
		exts = append(exts, rec.Ext)
	}
	return values, exts, nil
}
