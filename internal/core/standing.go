package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// ErrSubscriptionEnded reports that the peer closed a standing query —
// the sender because it can no longer serve deltas (key rotation, churn
// over the bound, change log exhausted), the receiver by unsubscribing.
// The last delivered result remains valid; the subscriber re-runs the
// full protocol to continue.
var ErrSubscriptionEnded = errors.New("core: subscription ended")

// errStandingSharded rejects standing queries on sharded sessions: a
// table-level delta spans all hash-prefix partitions, so an incremental
// push would need the delta re-partitioned per shard.  Sharded callers
// re-run the protocol instead.
var errStandingSharded = errors.New("core: standing queries require an unsharded session (Shards <= 1)")

// standingState is what a standing query retains between pushes: the
// protocol's receiver-side match state, able to fold one pushed update
// into itself and to evaluate the current answer.  fold's errors abort
// the session.
type standingState[R any] interface {
	fold(ctx context.Context, s *session, u wire.SubUpdate) error
	result(peerVersion uint64) R
}

// stateBuilder is a protocol's match rule: it turns what the engine
// received into that state (and, evaluated once, into the one-shot
// result).
type stateBuilder[R any] func(ctx context.Context, s *session, run *receiverRun) (standingState[R], error)

// oneShot is the receiver role of a protocol that also has a standing
// form: run the engine, build the match state, evaluate it once.
func oneShot[R sized](build stateBuilder[R]) role[R] {
	return func(ctx context.Context, s *session, p protocol, vR, _ [][]byte) (R, error) {
		var zero R
		run, err := s.runReceiver(ctx, p, vR)
		if err != nil {
			return zero, err
		}
		st, err := build(ctx, s, run)
		if err != nil {
			return zero, err
		}
		return st.result(s.peerVersion), nil
	}
}

// StandingQuery is party R's half of a standing query (the subscription
// variant of a protocol): after the base run R retains its match state
// and folds each SubUpdate the sender pushes into the result for
// O(churn) work instead of an O(|V_S|+|V_R|) re-run.
//
// The intersection retains e_R, the sorted permutation, its own double
// encryptions and the Z_S membership set, and pays (nIns+nDel)
// encryptions per update; the equijoin retains the match index keyed by
// f_eS(h(v)) with its per-position κ values, so a pushed delta costs it
// no exponentiations at all and one payload decryption per changed
// match.
//
// A StandingQuery is not safe for concurrent use.
type StandingQuery[R any] struct {
	s       *session
	st      standingState[R]
	res     R
	version uint64
	closed  bool
}

// StandingIntersection is a standing intersection query (Section 3.3).
type StandingIntersection = StandingQuery[*IntersectionResult]

// StandingJoin is a standing equijoin query (Section 4.3).
type StandingJoin = StandingQuery[*JoinResult]

// subscribe runs party R of protocol p exactly as the one-shot receiver
// does, then subscribes to the sender's deltas instead of hanging up.
func subscribe[R any](ctx context.Context, cfg Config, conn transport.Conn, p protocol, vR [][]byte, build stateBuilder[R]) (*StandingQuery[R], error) {
	if cfg.Shards > 1 {
		return nil, errStandingSharded
	}
	s := newSession(ctx, cfg, conn)
	run, err := s.runReceiver(ctx, p, vR)
	if err != nil {
		return nil, err
	}
	st, err := build(ctx, s, run)
	if err != nil {
		return nil, err
	}
	q := &StandingQuery[R]{s: s, st: st, version: s.peerVersion}
	q.res = st.result(q.version)
	if err := s.send(ctx, wire.Subscribe{FromVersion: q.version}); err != nil {
		return nil, err
	}
	return q, nil
}

// IntersectionReceiverStanding runs party R of the intersection
// protocol exactly as IntersectionReceiver does, then subscribes to the
// sender's deltas instead of hanging up.  The sender must be a standing
// sender (IntersectionSenderStanding); against a plain sender the
// subscribe frame dies with the connection and Await fails.
func IntersectionReceiverStanding(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*StandingIntersection, error) {
	return subscribe(ctx, cfg, conn, protoIntersection, dedup(values), newIntersectionState)
}

// EquijoinReceiverStanding runs party R of the equijoin protocol
// exactly as EquijoinReceiver does, then subscribes to the sender's
// deltas.  The sender must be EquijoinSenderStanding.
func EquijoinReceiverStanding(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*StandingJoin, error) {
	return subscribe(ctx, cfg, conn, protoEquijoin, dedup(values), newEquijoinState)
}

// Result returns the answer as of the last applied update (the base
// run's result before the first Await).
func (q *StandingQuery[R]) Result() R { return q.res }

// Version returns the sender data version the current result reflects.
func (q *StandingQuery[R]) Version() uint64 { return q.version }

// Await blocks for the next pushed update, folds it into the retained
// state, acknowledges it, and returns the refreshed result.  It returns
// ErrSubscriptionEnded when the sender closes the subscription.
func (q *StandingQuery[R]) Await(ctx context.Context) (R, error) {
	var none R
	if q.closed {
		return none, ErrSubscriptionEnded
	}
	s := q.s
	m, err := s.recvAny(ctx, wire.KindSubUpdate, wire.KindSubEnd)
	if err != nil {
		return none, err
	}
	if _, ended := m.(wire.SubEnd); ended {
		q.closed = true
		return none, ErrSubscriptionEnded
	}
	u := m.(wire.SubUpdate)

	var start time.Time
	if s.lat != nil {
		start = time.Now()
	}
	if u.From != q.version || u.To <= u.From {
		return none, s.abort(ctx, fmt.Errorf("%w: sub update spans %d..%d, want from %d",
			ErrMalformedReply, u.From, u.To, q.version))
	}
	if err := s.checkElems(ctx, u.Upserts, -1, "pushed upserts", true); err != nil {
		return none, s.abort(ctx, err)
	}
	if err := s.checkElems(ctx, u.Deleted, -1, "pushed deletes", true); err != nil {
		return none, s.abort(ctx, err)
	}
	if err := q.st.fold(ctx, s, u); err != nil {
		return none, s.abort(ctx, err)
	}
	q.version = u.To

	if err := s.send(ctx, wire.SubAck{Version: u.To}); err != nil {
		return none, err
	}
	if s.lat != nil {
		s.lat.Record(obs.LatDeltaApply, time.Since(start))
	}
	q.res = q.st.result(q.version)
	return q.res, nil
}

// Close unsubscribes: the sender sees the SubEnd (or the closed
// connection) and stops pushing.  Safe to call after the subscription
// already ended.
func (q *StandingQuery[R]) Close(ctx context.Context) error {
	if q.closed {
		return nil
	}
	q.closed = true
	return q.s.send(ctx, wire.SubEnd{Code: wire.SubEndClient})
}

// standingSender runs party S of protocol p exactly as the one-shot
// sender does, then serves the peer's standing query under the pinned
// key(s) of the set it just shipped.
func standingSender(ctx context.Context, cfg Config, conn transport.Conn, p protocol, vS, exts [][]byte) (*SenderInfo, error) {
	if cfg.Shards > 1 {
		return nil, errStandingSharded
	}
	if cfg.DeltaSource == nil {
		return nil, errors.New("core: standing sender requires a DeltaSource")
	}
	s := newSession(ctx, cfg, conn)
	run, err := s.runSender(ctx, p, vS, exts)
	if err != nil {
		return nil, err
	}
	return &SenderInfo{ReceiverSetSize: run.peerSize}, s.serveSubscription(ctx, run.own)
}

// IntersectionSenderStanding runs party S of the intersection protocol
// exactly as IntersectionSender does, then serves the peer's standing
// query: each time cfg.DeltaSource reports a new version, S re-encrypts
// only the churn under its pinned e_S (commutative.CachedSet.ApplyDelta)
// and pushes one SubUpdate.  cfg.DeltaSource must be non-nil and
// cfg.DataVersion must be the version it currently reports.
//
// The call returns when the receiver unsubscribes or hangs up (nil
// error — a receiver that never subscribes is the ordinary one-shot
// session, byte-identical on the wire to IntersectionSender), when the
// sender ends the subscription because a delta is unavailable or over
// the churn bound (nil error after a SubEnd push), or when ctx ends.
func IntersectionSenderStanding(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*SenderInfo, error) {
	return standingSender(ctx, cfg, conn, protoIntersection, dedup(values), nil)
}

// EquijoinSenderStanding runs party S of the equijoin protocol exactly
// as EquijoinSender does, then serves the peer's standing query with
// one SubUpdate per version step: upserted values ship as
// ⟨f_eS(h(v)), K(κ(v), ext(v))⟩ under the pinned keys, deletes as bare
// f_eS(h(v)).  cfg.DeltaSource must be non-nil.
func EquijoinSenderStanding(ctx context.Context, cfg Config, conn transport.Conn, records []JoinRecord) (*SenderInfo, error) {
	vS, exts, err := dedupRecords(records)
	if err != nil {
		return nil, err
	}
	return standingSender(ctx, cfg, conn, protoEquijoin, vS, exts)
}

// subRecvErr classifies an error from receiving a subscription-phase
// message: protocol violations and context ends surface; a transport
// close is the receiver hanging up, which ends the subscription cleanly.
func subRecvErr(ctx context.Context, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrPeerFailure),
		errors.Is(err, ErrMalformedReply),
		errors.Is(err, wire.ErrKindMismatch):
		return err
	case ctx.Err() != nil:
		return ctx.Err()
	}
	return nil
}

// serveSubscription is the sender-side push loop shared by the standing
// intersection and equijoin: wait for the Subscribe, then alternate
// between watching the DeltaSource and pushing one SubUpdate per version
// step, maintaining the retained encrypted set by applySetDelta.  own is
// the set as of cfg.DataVersion; in the equijoin shape upserts carry
// their payload ciphertexts.
func (s *session) serveSubscription(ctx context.Context, own *CacheEntry) error {
	src := s.cfg.DeltaSource
	cur := s.cfg.DataVersion
	// endByServer closes a subscription the sender can no longer serve
	// incrementally; the receiver re-runs the protocol to continue.
	endByServer := func() error {
		_ = s.send(ctx, wire.SubEnd{Code: wire.SubEndServer})
		return nil
	}

	m, err := s.recvAny(ctx, wire.KindSubscribe)
	if err != nil {
		return subRecvErr(ctx, err)
	}
	if sub := m.(wire.Subscribe); sub.FromVersion != cur {
		// The peer subscribed from a version this session did not serve.
		return endByServer()
	}

	// One pump goroutine owns the connection's receive side for the rest
	// of the session, so a client SubEnd (or hang-up) is noticed even
	// while the loop is blocked watching the DeltaSource.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type recvRes struct {
		m   wire.Message
		err error
	}
	msgs := make(chan recvRes)
	go func() {
		for {
			m, err := s.recvAny(ctx, wire.KindSubAck, wire.KindSubEnd)
			select {
			case msgs <- recvRes{m, err}:
			case <-ctx.Done():
				return
			}
			if err != nil {
				return
			}
		}
	}()

	for {
		// Block until the table moves or the peer speaks.
		wctx, wcancel := context.WithCancel(ctx)
		waitErr := make(chan error, 1)
		go func() { waitErr <- src.Wait(wctx, cur) }()
		select {
		case r := <-msgs:
			wcancel()
			<-waitErr
			if r.err != nil {
				return subRecvErr(ctx, r.err)
			}
			// SubEnd (client) — or a stray early SubAck, equally terminal.
			return nil
		case werr := <-waitErr:
			wcancel()
			if werr != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return werr
			}
		}

		d, ok := src.DeltaSince(cur)
		if !ok || d.From != cur || d.To <= cur {
			return endByServer()
		}
		next, u, err := s.pushDelta(ctx, own, d)
		if err != nil {
			// Over the churn bound, or in conflict with the retained set.
			return endByServer()
		}

		var start time.Time
		if s.lat != nil {
			start = time.Now()
		}
		if err := s.send(ctx, u); err != nil {
			return err
		}
		if s.lat != nil {
			s.lat.Record(obs.LatDeltaPush, time.Since(start))
		}

		select {
		case r := <-msgs:
			if r.err != nil {
				return subRecvErr(ctx, r.err)
			}
			// lint:ignore wirekind r.m comes from recvAny(KindSubAck, KindSubEnd) — the pump already rejects every other kind with ErrKindMismatch, so only the two subscription replies can reach this switch
			switch am := r.m.(type) {
			case wire.SubAck:
				if am.Version != d.To {
					return s.abort(ctx, fmt.Errorf("%w: sub ack for version %d, want %d",
						ErrMalformedReply, am.Version, d.To))
				}
			case wire.SubEnd:
				return nil
			}
		case <-ctx.Done():
			return ctx.Err()
		}

		own, cur = next, d.To
		if s.cfg.SetCache != nil {
			// Keep the peer's cache slot current so a later one-shot session
			// at this version starts warm.
			k := s.cfg.CacheKey
			k.Version = cur
			s.cfg.SetCache.Put(k, own)
		}
	}
}

// pushDelta turns one SetDelta into the upgraded retained set and the
// SubUpdate that ships it: the C_e spent re-encrypting the churn is paid
// once for both.
func (s *session) pushDelta(ctx context.Context, own *CacheEntry, d SetDelta) (*CacheEntry, wire.SubUpdate, error) {
	next, cd, err := s.applySetDelta(ctx, own, d, own.Set.Len()+len(d.Inserted))
	if err != nil {
		return nil, wire.SubUpdate{}, err
	}
	u := wire.SubUpdate{From: d.From, To: d.To, HasExt: own.hasExt(), Upserts: cd.Inserted, Deleted: cd.Deleted}
	if u.HasExt {
		u.Upserts, u.UpsertExt = cd.Upserts()
	}
	return next, u, nil
}
