package core

import (
	"context"
	"math/big"

	"minshare/internal/obs"
	"minshare/internal/oracle"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// The naive hash-exchange protocol of Section 3.1.  It "appears to work"
// — R does compute the correct intersection — but it is NOT secure: R can
// probe h(v) for any candidate v and test membership in the received
// X_S, and for a small domain can enumerate V_S completely.  It is
// implemented here as the negative baseline the paper opens with;
// NaiveDictionaryAttack demonstrates the break, and the package tests
// show the same attack fails against the real protocol's transcript.

// NaiveResult is what party R (over-)learns from the naive protocol.
type NaiveResult struct {
	// Values is V_S ∩ V_R.
	Values [][]byte
	// HashedSenderSet is the raw X_S = h(V_S) that S shipped — the
	// excess information that makes the protocol insecure.
	HashedSenderSet []*big.Int
}

// NaiveHashReceiver runs party R of the Section 3.1 protocol: it hashes
// its own set, receives X_S, and intersects.
func NaiveHashReceiver(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*NaiveResult, error) {
	s := newSession(ctx, cfg, conn)
	vR := dedup(values)

	if _, err := s.handshake(ctx, wire.ProtoNaiveHash, len(vR), true); err != nil {
		return nil, err
	}

	// Step 2 (peer): S sends its hashed set X_S.
	sp := obs.StartSpan(ctx, "exchange")
	m, err := s.recvAny(ctx, wire.KindElements)
	sp.End()
	if err != nil {
		return nil, err
	}
	xS := m.(wire.Elements).Elems

	// Step 3: set aside all v ∈ V_R with h(v) ∈ X_S — the dictionary
	// attack with R's own set as the dictionary.
	sp = obs.StartSpan(ctx, "match")
	defer sp.End()
	return &NaiveResult{Values: NaiveDictionaryAttack(s.cfg.Oracle, xS, vR), HashedSenderSet: xS}, nil
}

// NaiveHashSender runs party S of the Section 3.1 protocol: it ships
// h(V_S) and learns |V_R| from the handshake.
func NaiveHashSender(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*SenderInfo, error) {
	s := newSession(ctx, cfg, conn)
	vS := dedup(values)

	peerSize, err := s.handshake(ctx, wire.ProtoNaiveHash, len(vS), false)
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan(ctx, "hash-to-group")
	xS := s.cfg.Oracle.HashAll(vS)
	sp.End()
	sp = obs.StartSpan(ctx, "exchange")
	err = s.send(ctx, wire.Elements{Elems: sortedCopy(xS)})
	sp.End()
	if err != nil {
		return nil, err
	}
	return &SenderInfo{ReceiverSetSize: peerSize}, nil
}

// NaiveDictionaryAttack mounts the attack of Section 3.1 against a
// transcript: given the hashed set X_S that the naive protocol shipped
// and a candidate domain, it returns every candidate value that is
// (provably) a member of V_S.  "If the domain V is small, R can
// exhaustively go over all possible values and completely learn V_S."
func NaiveDictionaryAttack(o *oracle.Oracle, hashedSenderSet []*big.Int, domain [][]byte) [][]byte {
	ky := newKeyer(o.Backend())
	inXS := multisetCounts(hashedSenderSet, ky)
	var recovered [][]byte
	for _, candidate := range domain {
		if inXS[ky.key(o.Hash(candidate))] > 0 {
			recovered = append(recovered, candidate)
		}
	}
	return recovered
}

// DictionaryAttackElements mounts the same attack against an arbitrary
// vector of received group elements — e.g. the Y_S of the *real*
// intersection protocol.  Against commutative encryption the attack
// recovers nothing (no candidate's bare hash appears), which the tests
// assert: the contrast is exactly why Section 3.3 encrypts the hashes.
func DictionaryAttackElements(o *oracle.Oracle, received []*big.Int, domain [][]byte) [][]byte {
	return NaiveDictionaryAttack(o, received, domain)
}
