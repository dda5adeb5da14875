// Package party turns the role functions of internal/core into a
// long-running service: an enterprise runs a Server fronting one table
// attribute, and remote receivers connect to run any of the paper's
// protocols against it.  This is the deployment shape the paper's
// motivating applications assume — autonomous enterprises answering
// minimal-sharing queries — plus the Section 2.3 first line of defence:
// every incoming query passes a policy gate (allowed protocols, peer set
// size bounds, per-peer budgets) and lands in an audit trail.
package party

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"minshare/internal/core"
	"minshare/internal/group"
	"minshare/internal/leakage"
	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// Policy gates incoming sessions (Section 2.3's query scrutiny).
type Policy struct {
	// AllowedProtocols lists the protocols this server answers; empty
	// means all.
	AllowedProtocols []wire.Protocol
	// MaxPeerSetSize rejects sessions whose peer announces a larger set
	// (0 = unlimited).  Huge announced sets are a resource-exhaustion
	// vector as well as a privacy one.
	MaxPeerSetSize int
	// MinPeerSetSize rejects tiny peer sets (tracker-style isolation of
	// individuals; 0 = no minimum).
	MinPeerSetSize int
	// MaxQueriesPerPeer bounds answered sessions per remote *host*
	// (0 = unlimited).  Accounting is keyed by the host part of the
	// remote address — net.SplitHostPort — so the budget spans TCP
	// connections: a peer cannot reset it by reconnecting from a fresh
	// ephemeral port.
	MaxQueriesPerPeer int
	// MaxShards caps the shard count this server will adopt from a
	// peer's sharded handshake (core.Config.Shards).  0 accepts anything
	// up to the transport limit; 1 refuses shard-parallel sessions
	// outright.  Each shard costs the server a concurrent sub-session,
	// so an unbounded count is a resource-amplification vector.
	MaxShards int
}

// ErrPolicy reports a session rejected by policy.
var ErrPolicy = errors.New("party: session rejected by policy")

// ErrSaturated reports a session refused because the server already runs
// MaxSessions concurrent sessions.  Unlike ErrPolicy it is a transient
// condition: the same query may succeed once load subsides.
var ErrSaturated = errors.New("party: server saturated")

// Timeouts bounds the phases of a served session.  Zero fields disable
// the corresponding limit.  The three deadlines map onto the protocol
// timeline: Handshake covers the wait for the peer's opening header (a
// connection that never speaks), Idle covers every subsequent frame gap
// (a peer that stalls mid-stream), and Session caps the whole run (a
// peer that trickles frames forever, each inside the idle allowance).
type Timeouts struct {
	// Handshake bounds the wait for the session-opening header frame.
	Handshake time.Duration
	// Idle bounds every single Send/Recv after the handshake.
	Idle time.Duration
	// Session bounds the whole session wall-clock.
	Session time.Duration
}

func (p Policy) allows(proto wire.Protocol) bool {
	if len(p.AllowedProtocols) == 0 {
		return true
	}
	for _, a := range p.AllowedProtocols {
		if a == proto {
			return true
		}
	}
	return false
}

// Server answers protocol sessions as party S over a fixed dataset.
type Server struct {
	// Config is the shared cryptographic setup.
	Config core.Config
	// Values backs the set protocols (intersection, intersection size);
	// duplicates are removed by the protocols themselves.
	Values [][]byte
	// Records backs the equijoin; nil disables it.
	Records []core.JoinRecord
	// Multiset backs the equijoin-size protocol (values with
	// duplicates); nil falls back to Values.
	Multiset [][]byte
	// Policy gates sessions; the zero value allows everything.
	Policy Policy
	// Timeouts bounds session phases; the zero value imposes none.
	Timeouts Timeouts
	// MaxSessions caps concurrent in-flight sessions (0 = unlimited).
	// Arrivals beyond the cap are refused immediately with a wire error
	// (the peer sees ErrPeerFailure carrying the saturation text) instead
	// of queueing — under overload, fast rejection beats silent latency.
	MaxSessions int
	// DrainTimeout bounds graceful shutdown: once Serve's context is
	// cancelled the server stops accepting and lets in-flight sessions
	// finish for up to this long before force-cancelling them.  Zero
	// cancels in-flight sessions immediately on shutdown.
	DrainTimeout time.Duration
	// SetCache, when non-nil, caches the server's encrypted own-set
	// state across sessions so a peer's repeated queries against an
	// unchanged table skip the bulk-exponentiation phase.  Slots are
	// keyed per (peer identity, TableName, DataVersion, protocol); see
	// core.SenderSetCache for the exponent-reuse guarantee.
	//
	// CAVEAT — peer identity.  Without PeerIdentity, the slot identity
	// is the remote IP, which is NOT an authenticated peer identity:
	// distinct parties behind one NAT or proxy share an IP and would
	// share a slot's pinned exponent, weakening the no-reuse-across-
	// peers guarantee to "no reuse across source addresses".  Deployments
	// where that aliasing is possible must either set PeerIdentity to an
	// authenticated identity or leave the cache off (it is off by
	// default).
	SetCache *core.SenderSetCache
	// PeerIdentity, when non-nil, supplies the authenticated identity
	// that keys this session's cache slot — e.g. a TLS client-certificate
	// fingerprint recovered from the connection, or an identity asserted
	// by a fronting proxy.  remote is the transport-level remote address;
	// conn is the session's connection for transports that can surface
	// credentials via type assertion.  Returning ok=false means no
	// identity could be established and the cache is bypassed for that
	// session (the protocol still runs, cold).  When nil, the unauthenticated
	// remote host is used — see the SetCache caveat.
	PeerIdentity func(remote string, conn transport.Conn) (identity string, ok bool)
	// TableName names the served table for cache keying; only
	// meaningful with SetCache.
	TableName string
	// DataVersion, when non-nil, reports the served table's current
	// monotonic version (reldb.Table.Version) for cache keying and the
	// handshake's version tag.  It is called once per session and must
	// be safe for concurrent use; nil means version 0.
	DataVersion func() uint64
	// Source, when non-nil, binds the server to a live table attribute.
	// Each session then serves a consistent snapshot of the attribute in
	// place of the static Values/Records/Multiset fields, DataVersion
	// and TableName default to the table's, and the attribute's change
	// log becomes the core.DeltaSource behind cache delta-upgrades and
	// standing queries.
	Source *TableBinding
	// DeltaChurnMax forwards to core.Config.DeltaChurnMax: the fraction
	// of the served set a delta may touch before the delta-upgrade and
	// standing-query paths fall back to a full rebuild (0 = the core
	// default, negative disables delta upgrades).  Only meaningful with
	// Source.
	DeltaChurnMax float64
	// Standing serves standing queries: after an unsharded intersection
	// or equijoin completes, a subscribing receiver holds the session
	// open and is pushed encrypted deltas as the bound table changes.
	// Requires Source; classic receivers that hang up after the base
	// run see byte-identical sessions either way.
	Standing bool
	// Auditor, when non-nil, records every answered session and can veto
	// on its own criteria (budget, overlap of the served set).
	Auditor *leakage.Auditor
	// Obs, when non-nil, attributes each answered session to an
	// observability session in this registry: crypto-op and byte counters,
	// per-phase spans, and a summary line per session.  Nil keeps the
	// protocol hot path uninstrumented.
	Obs *obs.Registry
	// Logf, when non-nil, receives one line per session.
	Logf func(format string, args ...any)

	mu      sync.Mutex
	perPeer map[string]int

	limitOnce sync.Once
	sem       chan struct{}
	inFlight  atomic.Int64
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// lifecycle returns the obs lifecycle census (nil-safe: inert without a
// registry).
func (s *Server) lifecycle() *obs.Lifecycle { return s.Obs.Lifecycle() }

// group returns the configured group backend, defaulted.
func (s *Server) group() group.Backend {
	if g := s.Config.Group; g != nil {
		return g
	}
	return group.Default()
}

// peerHost reduces a remote address to its policy-accounting key: the
// host part of host:port.  Keying by the full address would hand every
// TCP connection a fresh budget (each dial arrives from a new ephemeral
// port), turning MaxQueriesPerPeer into a per-connection no-op.
func peerHost(peer string) string {
	if host, _, err := net.SplitHostPort(peer); err == nil {
		return host
	}
	return peer
}

// cachePeerIdentity resolves the identity that keys this session's
// encrypted-set cache slot: the authenticated PeerIdentity when the
// server configures one, the unauthenticated remote host otherwise.
// ok=false means the session must run without the cache.
func (s *Server) cachePeerIdentity(peer string, conn transport.Conn) (string, bool) {
	if s.PeerIdentity != nil {
		return s.PeerIdentity(peer, conn)
	}
	return peerHost(peer), true
}

// acquireSlot claims a concurrent-session slot; the release function is
// non-nil iff a slot was claimed.  ok is false when the server is
// saturated.
func (s *Server) acquireSlot() (release func(), ok bool) {
	s.limitOnce.Do(func() {
		if s.MaxSessions > 0 {
			s.sem = make(chan struct{}, s.MaxSessions)
		}
	})
	if s.sem == nil {
		return func() {}, true
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
		return nil, false
	}
}

// Serve accepts sessions until the listener closes or ctx is cancelled.
// Each connection carries exactly one protocol session and is handled on
// its own goroutine.
//
// Transient accept failures — EMFILE under an accept storm, aborted
// connections — are retried with exponential backoff (5ms doubling to
// 1s, the net/http pattern) instead of killing the server; only a
// non-transient listener error or cancellation ends the loop.
//
// Shutdown drains gracefully: cancelling ctx stops the accept loop, then
// in-flight sessions may finish for up to DrainTimeout before being
// force-cancelled.  Serve returns ctx.Err() after the drain completes.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// Sessions run under their own cancellation root so that shutdown can
	// stop accepting without instantly killing work in flight.
	sctx, cancelSessions := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelSessions()
	go func() {
		<-ctx.Done()
		ln.Close() // lint:ignore errclose listener close is the shutdown signal; Accept surfaces the resulting error
	}()
	var wg sync.WaitGroup
	var tempDelay time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return s.drainSessions(ctx.Err(), &wg, cancelSessions)
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				if tempDelay == 0 {
					tempDelay = 5 * time.Millisecond
				} else {
					tempDelay *= 2
				}
				if tempDelay > time.Second {
					tempDelay = time.Second
				}
				s.lifecycle().AddAcceptRetry()
				s.logf("party: accept error: %v; retrying in %v", err, tempDelay)
				select {
				case <-time.After(tempDelay):
					continue
				case <-ctx.Done():
					return s.drainSessions(ctx.Err(), &wg, cancelSessions)
				}
			}
			return s.drainSessions(fmt.Errorf("party: accept: %w", err), &wg, cancelSessions)
		}
		tempDelay = 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			peer := nc.RemoteAddr().String()
			conn := transport.NewTCP(nc)
			defer func() { _ = conn.Close() }()
			if err := s.handle(sctx, peer, conn); err != nil {
				s.logf("party: session with %s failed: %v", peer, err)
			}
		}()
	}
}

// drainSessions finishes a Serve run: it waits for in-flight sessions up
// to DrainTimeout, force-cancels the stragglers, and returns cause.
func (s *Server) drainSessions(cause error, wg *sync.WaitGroup, cancel context.CancelFunc) error {
	idle := make(chan struct{})
	go func() {
		wg.Wait()
		close(idle)
	}()
	if d := s.DrainTimeout; d > 0 {
		if n := s.inFlight.Load(); n > 0 {
			s.lifecycle().AddDrain()
			s.logf("party: draining %d in-flight sessions (up to %v)", n, d)
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-idle:
			return cause
		case <-t.C:
			n := s.inFlight.Load()
			s.lifecycle().AddDrainForced(n)
			s.logf("party: drain deadline hit; force-cancelling %d sessions", n)
		}
	}
	cancel()
	<-idle
	return cause
}

// HandleConn answers a single session on an established transport (used
// by tests and by in-process deployments over pipes).  peer names the
// remote for policy accounting.
func (s *Server) HandleConn(ctx context.Context, peer string, conn transport.Conn) error {
	return s.handle(ctx, peer, conn)
}

// handle runs the session lifecycle around runSession: the saturation
// gate, the in-flight census, and the classification of timeout
// evictions into the obs lifecycle counters.
func (s *Server) handle(ctx context.Context, peer string, conn transport.Conn) error {
	release, ok := s.acquireSlot()
	if !ok {
		s.lifecycle().AddSaturationReject()
		err := fmt.Errorf("%w: %d concurrent sessions", ErrSaturated, s.MaxSessions)
		// Tell the peer before hanging up, briefly: a saturated server
		// must not spend long on a slow rejectee either.  The receiver
		// speaks first, so its opening header is read (and dropped) before
		// the reply: hanging up while that write is still in flight would
		// have the peer report a closed connection instead of the reason.
		rejectCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		_, _ = conn.Recv(rejectCtx)
		codec := wire.NewCodec(s.group())
		if data, encErr := codec.Encode(wire.ErrorMsg{Text: err.Error()}); encErr == nil {
			_ = conn.Send(rejectCtx, data)
		}
		return err
	}
	defer release()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	if d := s.Timeouts.Session; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if d := s.Timeouts.Idle; d > 0 {
		conn = transport.WithIdleTimeout(conn, d)
	}
	err := s.runSession(ctx, peer, conn)
	switch {
	case errors.Is(err, errHandshakeTimeout):
		s.lifecycle().AddHandshakeTimeout()
	case errors.Is(err, transport.ErrIdleTimeout):
		s.lifecycle().AddIdleTimeout()
	case errors.Is(err, context.DeadlineExceeded) && s.Timeouts.Session > 0:
		s.lifecycle().AddSessionTimeout()
	}
	return err
}

// errHandshakeTimeout marks a session whose opening header never arrived
// within Timeouts.Handshake.
var errHandshakeTimeout = errors.New("party: handshake timeout")

// recvHeader reads the session-opening frame under the handshake
// allowance.
func (s *Server) recvHeader(ctx context.Context, conn transport.Conn) ([]byte, error) {
	hctx := ctx
	if d := s.Timeouts.Handshake; d > 0 {
		var cancel context.CancelFunc
		hctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	first, err := conn.Recv(hctx)
	if err != nil && ctx.Err() == nil &&
		(hctx.Err() == context.DeadlineExceeded || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, transport.ErrIdleTimeout)) {
		// Any per-operation timeout while waiting for the opening header
		// is a handshake failure: the peer connected and never spoke.
		return nil, fmt.Errorf("%w: %v", errHandshakeTimeout, err)
	}
	return first, err
}

func (s *Server) runSession(ctx context.Context, peer string, conn transport.Conn) error {
	// The receiver speaks first: read its header to learn which protocol
	// it wants, then hand the role function a transport that replays the
	// frame.
	first, err := s.recvHeader(ctx, conn)
	if err != nil {
		return fmt.Errorf("party: reading session header: %w", err)
	}
	cfg := s.Config
	g := s.group()
	cfg.Group = g
	codec := wire.NewCodec(g)
	msg, err := codec.Decode(first)
	if err != nil {
		return fmt.Errorf("party: decoding session header: %w", err)
	}
	hdr, ok := msg.(wire.Header)
	if !ok {
		return fmt.Errorf("party: first frame is %v, want header", msg.Kind())
	}

	if err := s.checkPolicy(peer, hdr); err != nil {
		// Tell the peer why before hanging up.
		if data, encErr := codec.Encode(wire.ErrorMsg{Text: err.Error()}); encErr == nil {
			_ = conn.Send(ctx, data)
		}
		return err
	}

	// Adopt the peer's shard count: the coordinator's outer handshake
	// (running over the replayed header) verifies the agreement, and the
	// policy gate above has already bounded it.  Shards <= 1 leaves the
	// classic single-session path untouched.
	if hdr.Shards > 1 {
		cfg.Shards = int(hdr.Shards)
	}

	replay := &replayConn{Conn: conn, pending: first}
	s.logf("party: %s running %v (peer set size %d, shards %d)", peer, hdr.Protocol, hdr.SetSize, normalizedShards(hdr.Shards))

	// Stamp the run with the served table's version and, when caching is
	// enabled, point it at this peer's slot.  The slot identity is the
	// authenticated PeerIdentity when configured — the only key that
	// makes the no-exponent-reuse guarantee hold across NATs/proxies —
	// and otherwise falls back to the peer *host* (not the per-connection
	// address, which would defeat cross-session reuse).  A configured
	// PeerIdentity that cannot identify the peer bypasses the cache for
	// the session rather than falling back to the spoofable address.
	if s.DataVersion != nil {
		cfg.DataVersion = s.DataVersion()
	}
	// A table binding replaces the static dataset with a consistent
	// snapshot: values, records, multiset, and the announced version all
	// reflect the same instant, which is what lets a standing session's
	// delta chain start exactly where the base run left off.
	values, records, multiset := s.Values, s.Records, s.Multiset
	tableName := s.TableName
	if s.Source != nil {
		snap := s.Source.Snapshot()
		values, multiset = snap.Values, snap.Multiset
		records = snap.Records
		cfg.DataVersion = snap.Version
		cfg.DeltaSource = s.Source.DeltaSource()
		cfg.DeltaChurnMax = s.DeltaChurnMax
		if tableName == "" {
			tableName = s.Source.TableName()
		}
	}
	if s.SetCache != nil {
		if id, ok := s.cachePeerIdentity(peer, conn); ok {
			cfg.SetCache = s.SetCache
			cfg.CacheKey = core.SetCacheKey{
				PeerHost: id,
				Table:    tableName,
				Version:  cfg.DataVersion,
				Protocol: hdr.Protocol,
			}
		}
	}

	// Attribute the run to an observability session.  The header frame
	// already consumed above is re-counted when replayConn hands it back
	// through the instrumented core session, so the byte census stays
	// complete.
	var osess *obs.Session
	if s.Obs != nil {
		osess = s.Obs.StartSession(obs.SessionInfo{
			Protocol:     hdr.Protocol.String(),
			Peer:         peer,
			Role:         "sender",
			LocalSetSize: localSetSize(hdr.Protocol, values, records, multiset),
			PeerSetSize:  int(hdr.SetSize),
		})
		ctx = obs.WithSession(ctx, osess)
	}

	// Standing service needs a delta source and an unsharded session (a
	// table-level delta spans all hash partitions); everything else runs
	// the classic one-shot senders.
	standing := s.Standing && s.Source != nil && normalizedShards(hdr.Shards) == 1
	switch hdr.Protocol {
	case wire.ProtoIntersection:
		if standing {
			_, err = core.IntersectionSenderStanding(ctx, cfg, replay, values)
		} else {
			_, err = core.IntersectionSender(ctx, cfg, replay, values)
		}
	case wire.ProtoIntersectionSize:
		_, err = core.IntersectionSizeSender(ctx, cfg, replay, values)
	case wire.ProtoEquijoin:
		switch {
		case records == nil:
			err = s.refuse(ctx, conn, codec, "server does not serve equijoin")
		case standing:
			_, err = core.EquijoinSenderStanding(ctx, cfg, replay, records)
		default:
			_, err = core.EquijoinSender(ctx, cfg, replay, records)
		}
	case wire.ProtoEquijoinSize:
		if multiset == nil {
			multiset = values
		}
		_, err = core.EquijoinSizeSender(ctx, cfg, replay, multiset)
	default:
		err = s.refuse(ctx, conn, codec, fmt.Sprintf("unsupported protocol %v", hdr.Protocol))
	}

	var stats leakage.SessionStats
	if osess != nil {
		snap := osess.End(err)
		stats = leakage.SessionStats{
			Bytes:    snap.Counters.TotalWireBytes(),
			Duration: snap.Duration,
			Spans:    obs.RenderSpans(snap.Spans),
		}
		s.logf("party: session %d trace=%s with %s: protocol=%v outcome=%q duration=%s modexp=%d oracle_hashes=%d wire_bytes=%d spans=%q",
			snap.ID, snap.TraceID, peer, hdr.Protocol, snap.Outcome,
			snap.Duration.Round(time.Microsecond),
			snap.Counters.ModExps(), snap.Counters.OracleHashes,
			snap.Counters.TotalWireBytes(), stats.Spans)
	}
	if err != nil {
		return err
	}

	s.record(peer, hdr, stats)
	return nil
}

// localSetSize reports how many values the server commits to a run of
// the given protocol over the session's dataset, for session metadata.
func localSetSize(proto wire.Protocol, values [][]byte, records []core.JoinRecord, multiset [][]byte) int {
	switch proto {
	case wire.ProtoEquijoin:
		return len(records)
	case wire.ProtoEquijoinSize:
		if multiset != nil {
			return len(multiset)
		}
	}
	return len(values)
}

func (s *Server) refuse(ctx context.Context, conn transport.Conn, codec *wire.Codec, why string) error {
	if data, err := codec.Encode(wire.ErrorMsg{Text: why}); err == nil {
		_ = conn.Send(ctx, data)
	}
	return fmt.Errorf("%w: %s", ErrPolicy, why)
}

func (s *Server) checkPolicy(peer string, hdr wire.Header) error {
	if !s.Policy.allows(hdr.Protocol) {
		return fmt.Errorf("%w: protocol %v not allowed", ErrPolicy, hdr.Protocol)
	}
	if s.Policy.MaxPeerSetSize > 0 && hdr.SetSize > uint64(s.Policy.MaxPeerSetSize) {
		return fmt.Errorf("%w: peer set size %d above limit %d", ErrPolicy, hdr.SetSize, s.Policy.MaxPeerSetSize)
	}
	if s.Policy.MinPeerSetSize > 0 && hdr.SetSize < uint64(s.Policy.MinPeerSetSize) {
		return fmt.Errorf("%w: peer set size %d below minimum %d", ErrPolicy, hdr.SetSize, s.Policy.MinPeerSetSize)
	}
	if k := int(hdr.Shards); k > 1 {
		if k > transport.MaxShards {
			return fmt.Errorf("%w: shard count %d above transport limit %d", ErrPolicy, k, transport.MaxShards)
		}
		if s.Policy.MaxShards > 0 && k > s.Policy.MaxShards {
			return fmt.Errorf("%w: shard count %d above limit %d", ErrPolicy, k, s.Policy.MaxShards)
		}
	}
	host := peerHost(peer)
	s.mu.Lock()
	count := s.perPeer[host]
	s.mu.Unlock()
	if s.Policy.MaxQueriesPerPeer > 0 && count >= s.Policy.MaxQueriesPerPeer {
		return fmt.Errorf("%w: peer %s exhausted its %d-query budget", ErrPolicy, host, s.Policy.MaxQueriesPerPeer)
	}
	if s.Auditor != nil {
		if err := s.Auditor.Check(peer, hdr.Protocol.String(), s.Values); err != nil {
			return fmt.Errorf("%w: %v", ErrPolicy, err)
		}
	}
	return nil
}

func (s *Server) record(peer string, hdr wire.Header, stats leakage.SessionStats) {
	s.mu.Lock()
	if s.perPeer == nil {
		s.perPeer = make(map[string]int)
	}
	s.perPeer[peerHost(peer)]++
	s.mu.Unlock()
	if s.Auditor != nil {
		_ = s.Auditor.ApproveSession(peer, hdr.Protocol.String(), s.Values, stats)
	}
}

// normalizedShards maps the header's shard byte to the effective
// sub-session count (<= 1 means the classic single session).
func normalizedShards(k uint8) int {
	if k <= 1 {
		return 1
	}
	return int(k)
}

// replayConn hands back an already-consumed frame on the first Recv.
type replayConn struct {
	transport.Conn
	mu      sync.Mutex
	pending []byte
}

func (r *replayConn) Recv(ctx context.Context) ([]byte, error) {
	r.mu.Lock()
	if p := r.pending; p != nil {
		r.pending = nil
		r.mu.Unlock()
		return p, nil
	}
	r.mu.Unlock()
	return r.Conn.Recv(ctx)
}
