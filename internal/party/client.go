package party

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"minshare/internal/core"
	"minshare/internal/obs"
	"minshare/internal/transport"
)

// Retry configures client-side backoff for transient connection
// -establishment failures: refused or timed-out dials, TLS handshakes
// that never complete, a listener mid-restart.
//
// What is — deliberately — never retried is a session whose first frame
// already reached the peer.  A protocol run is not idempotent once the
// server has read the opening header: it has learned |V_R| (the paper's
// permitted additional information I), charged the per-host query
// budget, and written the audit trail.  Re-running silently would turn
// one logical query into several observed ones, so any failure after
// the first delivered frame — including a policy rejection or a
// saturated-server refusal, which the peer only reports after reading
// the header — surfaces to the caller, who alone can decide to query
// again.
type Retry struct {
	// Attempts is the total number of tries, including the first
	// (0 or 1 = no retry).
	Attempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// attempt.  Defaults to 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff.  Defaults to 2s.
	MaxDelay time.Duration
}

// backoff returns the jittered pause before retry n (0-based): the
// exponential delay min(MaxDelay, BaseDelay·2ⁿ) with its upper half
// randomized so synchronized clients reconnecting to a restarted server
// spread out instead of stampeding.
func (r Retry) backoff(n int) time.Duration {
	base, max := r.BaseDelay, r.MaxDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 0; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + rand.N(d/2+1)
}

// Client runs receiver-side protocols against a Server.  Each call opens
// a fresh connection (a server connection carries exactly one session).
type Client struct {
	addr string
	cfg  core.Config
	// dial is swappable for tests; defaults to TCP.
	dial func(ctx context.Context) (transport.Conn, error)

	// Retry, when Attempts > 1, re-dials after transient
	// connection-establishment failures; see the Retry doc for what is
	// never retried.  Settable until the first call.
	Retry Retry
	// Obs, when non-nil, counts retries in the registry's lifecycle
	// census.
	Obs *obs.Registry
}

// NewClient returns a client for the server at addr.
func NewClient(addr string, cfg core.Config) *Client {
	c := &Client{addr: addr, cfg: cfg}
	c.dial = func(ctx context.Context) (transport.Conn, error) {
		return transport.Dial(ctx, "tcp", addr)
	}
	return c
}

// NewClientConnFunc returns a client using a custom connection factory
// (in-process pipes in tests, TLS dialers in deployments).
func NewClientConnFunc(cfg core.Config, dial func(ctx context.Context) (transport.Conn, error)) *Client {
	return &Client{cfg: cfg, dial: dial}
}

// sendProbe marks the moment a session stops being safely retryable: it
// records that a Send was attempted, whether or not it succeeded — a
// failed write may still have delivered bytes the peer acted on.
type sendProbe struct {
	transport.Conn
	attempted atomic.Bool
}

func (p *sendProbe) Send(ctx context.Context, frame []byte) error {
	p.attempted.Store(true)
	return p.Conn.Send(ctx, frame)
}

// retryPause sleeps out the jittered backoff before retry n and counts
// it; false means ctx ended first and the caller must give up.
func (c *Client) retryPause(ctx context.Context, n int) bool {
	t := time.NewTimer(c.Retry.backoff(n))
	select {
	case <-t.C:
	case <-ctx.Done():
		t.Stop()
		return false
	}
	c.Obs.Lifecycle().AddClientRetry()
	return true
}

// dialRun dials under the client's Retry policy and runs one session on
// the connection.  The connection is closed when run returns — unless
// keep is set and run succeeded, in which case it is handed to the
// caller (a standing query outlives the call).
func dialRun[R any](ctx context.Context, c *Client, keep bool, run func(transport.Conn) (R, error)) (res R, kept transport.Conn, err error) {
	attempts := c.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if !c.retryPause(ctx, attempt-1) {
				return res, nil, err
			}
		}
		var conn transport.Conn
		conn, err = c.dial(ctx)
		if err != nil {
			err = fmt.Errorf("party: dialing %s: %w", c.addr, err)
			if ctx.Err() != nil {
				return res, nil, err
			}
			continue // nothing reached the peer: safe to retry
		}
		probe := &sendProbe{Conn: conn}
		res, err = run(probe)
		if err == nil && keep {
			return res, probe, nil
		}
		_ = conn.Close()
		if err == nil || probe.attempted.Load() || ctx.Err() != nil {
			// Success, or the peer may have seen our header — either way
			// this attempt is the last.
			return res, nil, err
		}
	}
	return res, nil, err
}

// observe attaches a client-side obs session to ctx when the client has
// a registry and the caller did not already supply a session of its own,
// so every Client call is counted, span-timed, and trace-stitched with
// the server without the caller touching the obs API.  The returned end
// function closes the session with the run's outcome; with no registry
// (or a caller-provided session) both returns are pass-throughs.
func (c *Client) observe(ctx context.Context, protocol string, localSet int) (context.Context, func(error)) {
	if c.Obs == nil || obs.SessionFrom(ctx) != nil {
		return ctx, func(error) {}
	}
	sess := c.Obs.StartSession(obs.SessionInfo{
		Protocol:     protocol,
		Peer:         c.addr,
		Role:         "receiver",
		LocalSetSize: localSet,
	})
	return obs.WithSession(ctx, sess), func(err error) { sess.End(err) }
}

// receiverFunc is the shape of core's receiver-side entry points.
type receiverFunc[R any] func(ctx context.Context, cfg core.Config, conn transport.Conn, values [][]byte) (R, error)

// query runs one one-shot receiver session: observed, dialed with
// retry, and closed on return.
func query[R any](ctx context.Context, c *Client, protocol string, values [][]byte, run receiverFunc[R]) (R, error) {
	ctx, end := c.observe(ctx, protocol, len(values))
	res, _, err := dialRun(ctx, c, false, func(conn transport.Conn) (R, error) {
		return run(ctx, c.cfg, conn, values)
	})
	end(err)
	return res, err
}

// Intersect runs the intersection protocol against the server.
func (c *Client) Intersect(ctx context.Context, values [][]byte) (*core.IntersectionResult, error) {
	return query(ctx, c, "intersection", values, core.IntersectionReceiver)
}

// IntersectSize runs the intersection-size protocol against the server.
func (c *Client) IntersectSize(ctx context.Context, values [][]byte) (*core.SizeResult, error) {
	return query(ctx, c, "intersection-size", values, core.IntersectionSizeReceiver)
}

// Join runs the equijoin protocol against the server.
func (c *Client) Join(ctx context.Context, values [][]byte) (*core.JoinResult, error) {
	return query(ctx, c, "equijoin", values, core.EquijoinReceiver)
}

// JoinSize runs the equijoin-size protocol against the server; values is
// a multiset.
func (c *Client) JoinSize(ctx context.Context, values [][]byte) (*core.JoinSizeResult, error) {
	return query(ctx, c, "equijoin-size", values, core.EquijoinSizeReceiver)
}
