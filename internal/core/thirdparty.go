package core

import (
	"context"
	"fmt"
	"math/big"

	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// Third-party intersection size (Figure 2 of the paper).
//
// The medical research application uses "a slightly modified version of
// the intersection size protocol where Z_R and Z_S are sent to T, the
// researcher, instead of to S and R".  Parties A and B each hold a value
// set; they exchange encrypted sets directly (steps 1-4 of the
// Section 5.1.1 protocol), but the doubly-encrypted sets go to the
// analyst T, who alone computes |V_A ∩ V_B|.  Neither A nor B learns the
// intersection size; T learns only the two set sizes and the overlap.
//
// Party A plays the header-first role (like R); party B responds (like
// S).  Both need a connection to each other and to T.

// ThirdPartySizeResult is what the analyst T learns.
type ThirdPartySizeResult struct {
	// IntersectionSize is |V_A ∩ V_B| (multiset-aware: for multiset
	// inputs it is the join size Σ dup_A·dup_B).
	IntersectionSize int
	// SizeA and SizeB are the announced set sizes.
	SizeA, SizeB int
}

// ThirdPartyPeerInfo is what each data party learns: the other party's
// set size (from the direct exchange) and nothing about the overlap.
type ThirdPartyPeerInfo struct {
	PeerSetSize int
}

// ThirdPartyPartyA runs the first data party.  peer connects to party B;
// analyst connects to T.
func ThirdPartyPartyA(ctx context.Context, cfg Config, peer, analyst transport.Conn, values [][]byte) (*ThirdPartyPeerInfo, error) {
	return thirdPartyParty(ctx, cfg, peer, analyst, values, true)
}

// ThirdPartyPartyB runs the second data party.
func ThirdPartyPartyB(ctx context.Context, cfg Config, peer, analyst transport.Conn, values [][]byte) (*ThirdPartyPeerInfo, error) {
	return thirdPartyParty(ctx, cfg, peer, analyst, values, false)
}

func thirdPartyParty(ctx context.Context, cfg Config, peer, analyst transport.Conn, values [][]byte, first bool) (*ThirdPartyPeerInfo, error) {
	ps := newSession(ctx, cfg, peer)
	as := newSession(ctx, cfg, analyst)
	vals := dedup(values)

	peerSize, err := ps.handshake(ctx, wire.ProtoIntersectionSize, len(vals), first)
	if err != nil {
		return nil, err
	}

	// Steps 1-2 are the sender prelude: hash own set, draw key, encrypt,
	// sort.
	keys, err := ps.ownSetKeys(ctx, vals, false)
	if err != nil {
		return nil, err
	}
	own, err := ps.ownSetBuild(ctx, keys, nil)
	if err != nil {
		return nil, err
	}

	// Steps 3-4 pipelined: exchange singly-encrypted sets with the peer,
	// sorted (party A sends first to avoid a lockstep deadlock in legacy
	// mode; streaming mode runs the halves full-duplex), double-
	// encrypting each received chunk while the next is in flight.
	sp := obs.StartSpan(ctx, "exchange")
	var z []*big.Int
	err = ps.duplex(ctx, !first,
		func(ctx context.Context) error { return ps.sendElems(ctx, own.Set.Elems()) },
		func(ctx context.Context) (rerr error) {
			_, z, rerr = ps.recvReencrypt(ctx, keys.key, peerSize, "peer Y")
			return rerr
		})
	sp.End()
	if err != nil {
		return nil, err
	}

	// Ship the doubly-encrypted set — sorted, so the analyst (and no one
	// else) can only count — to T, together with a header announcing our
	// own set size.
	sp = obs.StartSpan(ctx, "ship-to-analyst")
	if _, err := as.handshake(ctx, wire.ProtoIntersectionSize, len(vals), true); err != nil {
		sp.End()
		return nil, err
	}
	err = as.sendElems(ctx, sortedCopy(z))
	sp.End()
	if err != nil {
		return nil, err
	}
	return &ThirdPartyPeerInfo{PeerSetSize: peerSize}, nil
}

// ThirdPartyAnalyst runs the analyst T: it receives the doubly-encrypted
// set of party B's values from party A and vice versa, and counts the
// overlap.  connA and connB are T's connections to the two data parties.
func ThirdPartyAnalyst(ctx context.Context, cfg Config, connA, connB transport.Conn) (*ThirdPartySizeResult, error) {
	sa := newSession(ctx, cfg, connA)
	sb := newSession(ctx, cfg, connB)

	// Each data party announces its own size, then ships the *other*
	// party's doubly-encrypted set.
	sp := obs.StartSpan(ctx, "exchange")
	sizeA, err := sa.handshake(ctx, wire.ProtoIntersectionSize, 0, false)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("core: analyst handshake with A: %w", err)
	}
	// Cardinality is checked after both handshakes: each party ships the
	// *other* party's set, so the expected length is known only then.
	zFromA, err := sa.recvElems(ctx, -1, "Z from A", false, true) // = Z_B: B's values, doubly encrypted
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("core: analyst receiving from A: %w", err)
	}

	sizeB, err := sb.handshake(ctx, wire.ProtoIntersectionSize, 0, false)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("core: analyst handshake with B: %w", err)
	}
	zFromB, err := sb.recvElems(ctx, -1, "Z from B", false, true) // = Z_A: A's values, doubly encrypted
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: analyst receiving from B: %w", err)
	}

	sp = obs.StartSpan(ctx, "analyst-count")
	defer sp.End()
	if len(zFromA) != sizeB {
		return nil, fmt.Errorf("%w: Z from A has %d elements, want %d", ErrMalformedReply, len(zFromA), sizeB)
	}
	if len(zFromB) != sizeA {
		return nil, fmt.Errorf("%w: Z from B has %d elements, want %d", ErrMalformedReply, len(zFromB), sizeA)
	}

	size := overlap(zFromB, zFromA, newKeyer(sa.cfg.Group))
	return &ThirdPartySizeResult{IntersectionSize: size, SizeA: sizeA, SizeB: sizeB}, nil
}
