package bench

import (
	"context"
	"sync"
	"time"

	"minshare/internal/core"
	"minshare/internal/group"
	"minshare/internal/obs"
	"minshare/internal/reldb"
	"minshare/internal/transport"
)

// env is what one world runs under.  A measured run uses a plain env: no
// tracer, no obs registry, no decorators — only a byte meter on the
// receiver endpoint.  A traced run builds a second world under a traced
// env, where every seam is decorated and every session is attributed to
// an obs session.
type env struct {
	seed uint64

	tr  *tracer   // nil when plain
	log *frameLog // nil when plain
	// reg attributes the receiver side (and, in pipe workloads, both
	// sides); srvReg is the served party's own registry, as a deployed
	// server would have, so its session census is the server's alone.
	reg, srvReg *obs.Registry // nil when plain

	mu     sync.Mutex
	meters []*transport.Meter
}

func newTracedEnv(seed uint64) *env {
	e := &env{seed: seed, tr: newTracer(), log: &frameLog{}, reg: obs.NewRegistry(), srvReg: obs.NewRegistry()}
	// The flight recorder is how finished sessions' phase spans are read
	// back; the default budget would evict most of a few hundred sessions.
	e.reg.Flight().SetBudget(64 << 20)
	e.srvReg.Flight().SetBudget(64 << 20)
	return e
}

// census is the program's own account of a traced env at one instant:
// the obs counters of both registries summed, the set-cache census, and
// the served party's session lifecycle.
type census struct {
	counters                   obs.CounterSnapshot
	cache                      obs.CacheSnapshot
	sessions, failed, rejected int64
}

func (e *env) census() census {
	r, s := e.reg.Snapshot(), e.srvReg.Snapshot()
	return census{
		counters: r.Global.Add(s.Global),
		cache:    s.Cache,
		sessions: s.SessionsFinished + int64(s.SessionsActive),
		failed:   s.SessionsFailed,
		rejected: s.Lifecycle.SaturationRejects,
	}
}

func (e *env) traced() bool { return e.tr != nil }

// root is the scope op i's spans hang from.
func (e *env) root(op int) scope { return scope{tr: e.tr, op: int32(op)} }

// meter wraps the receiver endpoint in a transport.Meter the env keeps,
// so wire bytes can be read at region boundaries even while a standing
// session's connection is still open.
func (e *env) meter(c transport.Conn) *transport.Meter {
	m := transport.NewMeter(c)
	e.mu.Lock()
	e.meters = append(e.meters, m)
	e.mu.Unlock()
	return m
}

// wireBytes is transport.Meter.TotalWireBytes summed over every receiver
// endpoint the env has metered so far.
func (e *env) wireBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var n int64
	for _, m := range e.meters {
		n += m.TotalWireBytes()
	}
	return n
}

// quiesce waits until every frame sent through a decorated endpoint has
// been received by one, so a phase boundary does not split a frame.  It
// gives up after a second: a frame a peer will never read (sent into a
// closing connection) must not hang the run.
func (e *env) quiesce(ctx context.Context) {
	deadline := time.Now().Add(time.Second)
	for e.log.sent.Load() != e.log.recvd.Load() && time.Now().Before(deadline) && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
}

// outcome is one finished op.
type outcome struct {
	dur    time.Duration
	values int // input values both parties brought to the op
	err    error
	// check compares the op's result with the plaintext oracle.  The
	// driver calls it after the timed region, so neither its time nor its
	// allocations are measured.
	check func() error
}

// world is one set-up instance of a workload: inputs generated, tables
// loaded, servers listening, caches warm.
type world interface {
	// clients is the number of closed-loop callers that drive op
	// concurrently; each waits for its answer before its next op.
	clients() int
	// round is how many consecutive ops of one client form a repeatable
	// unit (4 where the protocols rotate).  The driver stops only at
	// round boundaries, so bytes and values per op repeat exactly.
	round() int
	// op runs the i-th op of client c.
	op(ctx context.Context, c, i int) outcome
	// facts describes the world to the traced run's replays and cost
	// model.
	facts() facts
	close()
}

// facts is what the replays and the cost model need to know about a
// world beyond what its spans say.
type facts struct {
	backend group.Backend
	// hashed is the plaintext the parties hash per op, for the oracle
	// replay; senderSet is what S bulk-encrypts, for the EncryptAll and
	// CachedSet replays.
	hashed    [][]byte
	senderSet [][]byte
	// hashedPerOp is how many plaintext values pass through the
	// program's hash-and-collision-check per op.
	hashedPerOp int
	// table and col name the served relation, nil for pipe workloads.
	table *reldb.Table
	col   string
	cache *core.SenderSetCache
	// linkBps is the modelled link rate, 0 for an unshaped transport.
	linkBps float64
	// churn lists, per standing op since set-up, the values inserted and
	// deleted, for the ApplyDelta replay; base is the served set before
	// the first of them.
	churn []churnStep
	base  [][]byte
	// predict returns the certified closed forms for one op.  pushes is
	// the measured number of SubUpdate frames per op (standing only).
	predict func(pushes float64) prediction
	// k1 runs one unsharded op on the same inputs (sharded workload only).
	k1 func(ctx context.Context) outcome
}

type churnStep struct{ ins, del [][]byte }

// prediction is the closed-form census of one op: C_e, C_h and C_K
// counts, and total on-wire bytes at the receiver endpoint (codec
// frames plus transport.FrameOverhead each, mux framing excluded — the
// layer the certified forms describe).
type prediction struct {
	ce, ch, ck float64
	wireBytes  float64
}
