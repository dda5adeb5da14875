package party

import (
	"context"

	"minshare/internal/core"
	"minshare/internal/transport"
)

// Standing is a client-held standing query: the base result plus the
// open subscription that keeps it current.  The connection stays
// dedicated to the subscription until Close.
type Standing[R any] struct {
	q    *core.StandingQuery[R]
	conn transport.Conn
	end  func(error)
}

// StandingIntersect is a client-held standing intersection.
type StandingIntersect = Standing[*core.IntersectionResult]

// StandingJoinQuery is a client-held standing equijoin.
type StandingJoinQuery = Standing[*core.JoinResult]

// IntersectStanding runs the intersection protocol and subscribes to
// the server's updates.  Unlike the one-shot calls the connection
// outlives the method: the caller owns the returned handle and must
// Close it.  Dial failures are retried under the client's Retry policy;
// a session that reached the server is never re-run (see Retry).
func (c *Client) IntersectStanding(ctx context.Context, values [][]byte) (*StandingIntersect, error) {
	return standing(ctx, c, "intersection", values, core.IntersectionReceiverStanding)
}

// JoinStanding runs the equijoin protocol and subscribes to the
// server's updates.  The caller owns the returned handle and must
// Close it.
func (c *Client) JoinStanding(ctx context.Context, values [][]byte) (*StandingJoinQuery, error) {
	return standing(ctx, c, "equijoin", values, core.EquijoinReceiverStanding)
}

func standing[R any](ctx context.Context, c *Client, protocol string, values [][]byte, run receiverFunc[*core.StandingQuery[R]]) (*Standing[R], error) {
	ctx, end := c.observe(ctx, protocol, len(values))
	q, conn, err := dialRun(ctx, c, true, func(conn transport.Conn) (*core.StandingQuery[R], error) {
		return run(ctx, c.cfg, conn, values)
	})
	if err != nil {
		end(err)
		return nil, err
	}
	return &Standing[R]{q: q, conn: conn, end: end}, nil
}

// Result returns the answer as of the last applied update (the base
// run's before the first Await).
func (s *Standing[R]) Result() R { return s.q.Result() }

// Version reports the server data version the current result reflects.
func (s *Standing[R]) Version() uint64 { return s.q.Version() }

// Await blocks for the next pushed update and returns the refreshed
// result, or core.ErrSubscriptionEnded once the server has ended the
// subscription (the last result stays valid).
func (s *Standing[R]) Await(ctx context.Context) (R, error) { return s.q.Await(ctx) }

// Close ends the subscription and releases the connection.
func (s *Standing[R]) Close(ctx context.Context) error {
	err := s.q.Close(ctx)
	_ = s.conn.Close()
	s.end(err)
	return err
}
