package bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"time"

	"minshare/internal/core"
	"minshare/internal/costmodel"
	"minshare/internal/group"
	"minshare/internal/kenc"
	"minshare/internal/obs"
	"minshare/internal/oracle"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// t1RTT is the round-trip time of the modelled inter-enterprise link;
// the rate is the paper's T1 (transport.T1).
const t1RTT = 20 * time.Millisecond

// leg is one protocol run between two in-process parties over a fresh
// pipe.  An op of a pipe workload is one leg, or four back to back.
type leg struct {
	kind   kind
	cfg    core.Config // Group, ChunkSize and Shards only; no decorators
	values int
	recv   func(ctx context.Context, cfg core.Config, conn transport.Conn) (check func() error, err error)
	send   func(ctx context.Context, cfg core.Config, conn transport.Conn) error
}

// pipeWorld runs its legs between two goroutines over transport.Pipe,
// optionally shaped as the T1 line in both directions.
type pipeWorld struct {
	e    *env
	legs []leg
	t1   bool
	f    facts
}

func (w *pipeWorld) clients() int { return 1 }
func (w *pipeWorld) round() int   { return 1 }
func (w *pipeWorld) facts() facts { return w.f }
func (w *pipeWorld) close()       {}

func (w *pipeWorld) op(ctx context.Context, _, i int) outcome {
	out := outcome{}
	endOp := func() {}
	var opScope scope
	if w.e.traced() {
		opScope, endOp = w.e.root(i).open(kOp, roleNone)
	}
	var checks []func() error
	start := time.Now()
	for _, l := range w.legs {
		chk, err := w.runLeg(ctx, opScope, l)
		if err != nil {
			out.err = err
			break
		}
		checks = append(checks, chk)
		out.values += l.values
	}
	out.dur = time.Since(start)
	endOp()
	out.check = func() error {
		for _, chk := range checks {
			if err := chk(); err != nil {
				return err
			}
		}
		return nil
	}
	return out
}

func (w *pipeWorld) runLeg(ctx context.Context, opScope scope, l leg) (func() error, error) {
	a, b := transport.Pipe()
	var rc, sc transport.Conn = a, b
	if w.t1 {
		rc = transport.NewLatency(a, t1RTT).WithBandwidth(transport.T1.BitsPerSecond)
		sc = transport.NewLatency(b, t1RTT).WithBandwidth(transport.T1.BitsPerSecond)
	}
	rc = w.e.meter(rc)
	cfgR, cfgS := l.cfg, l.cfg
	ctxR, ctxS := ctx, ctx
	endLeg, endR, endS := func() {}, func(error) {}, func(error) {}
	if w.e.traced() {
		legScope, endLegSpan := opScope.open(l.kind, roleNone)
		rScope, endRSpan := legScope.open(kReceiver, roleReceiver)
		sScope, endSSpan := legScope.open(kSender, roleSender)
		muxed := l.cfg.Shards > 1
		rc = &tracedConn{inner: rc, sc: rScope, log: w.e.log, capture: true, muxed: muxed}
		sc = &tracedConn{inner: sc, sc: sScope, log: w.e.log, muxed: muxed}
		cfgR, cfgS = tracedConfig(l.cfg, rScope), tracedConfig(l.cfg, sScope)
		sessR := w.e.reg.StartSession(obs.SessionInfo{Protocol: kindNames[l.kind], Role: "receiver"})
		sessS := w.e.reg.StartSession(obs.SessionInfo{Protocol: kindNames[l.kind], Role: "sender"})
		ctxR, ctxS = obs.WithSession(ctx, sessR), obs.WithSession(ctx, sessS)
		endLeg = endLegSpan
		endR = func(err error) { endRSpan(); sessR.End(err) }
		endS = func(err error) { endSSpan(); sessS.End(err) }
	}
	// Closing either endpoint closes the pipe; both are closed so that a
	// Latency forwarder on either side stops.
	defer func() { _ = rc.Close(); _ = sc.Close() }()

	errS := make(chan error, 1)
	go func() {
		err := l.send(ctxS, cfgS, sc)
		endS(err)
		errS <- err
	}()
	chk, err := l.recv(ctxR, cfgR, rc)
	endR(err)
	if err != nil {
		_ = rc.Close() // unblock a sender still waiting on this side
	}
	if serr := <-errS; err == nil {
		err = serr
	}
	endLeg()
	return chk, err
}

func intersectionLeg(cfg core.Config, in setInputs) leg {
	return leg{
		kind: kIntersection, cfg: cfg, values: len(in.vR) + len(in.vS),
		recv: func(ctx context.Context, cfg core.Config, conn transport.Conn) (func() error, error) {
			res, err := core.IntersectionReceiver(ctx, cfg, conn, in.vR)
			if err != nil {
				return nil, err
			}
			return func() error { return checkIntersection(res, in.want, len(in.vS)) }, nil
		},
		send: func(ctx context.Context, cfg core.Config, conn transport.Conn) error {
			_, err := core.IntersectionSender(ctx, cfg, conn, in.vS)
			return err
		},
	}
}

func joinLeg(cfg core.Config, in joinInputs) leg {
	return leg{
		kind: kEquijoin, cfg: cfg, values: len(in.vR) + len(in.records),
		recv: func(ctx context.Context, cfg core.Config, conn transport.Conn) (func() error, error) {
			res, err := core.EquijoinReceiver(ctx, cfg, conn, in.vR)
			if err != nil {
				return nil, err
			}
			return func() error { return checkJoin(res, in.want, len(in.records)) }, nil
		},
		send: func(ctx context.Context, cfg core.Config, conn transport.Conn) error {
			_, err := core.EquijoinSender(ctx, cfg, conn, in.records)
			return err
		},
	}
}

func sizeLeg(cfg core.Config, in setInputs) leg {
	return leg{
		kind: kIntersectionSize, cfg: cfg, values: len(in.vR) + len(in.vS),
		recv: func(ctx context.Context, cfg core.Config, conn transport.Conn) (func() error, error) {
			res, err := core.IntersectionSizeReceiver(ctx, cfg, conn, in.vR)
			if err != nil {
				return nil, err
			}
			return func() error { return checkSize(res, len(in.want), len(in.vS)) }, nil
		},
		send: func(ctx context.Context, cfg core.Config, conn transport.Conn) error {
			_, err := core.IntersectionSizeSender(ctx, cfg, conn, in.vS)
			return err
		},
	}
}

func joinSizeLeg(cfg core.Config, in multisetInputs) leg {
	return leg{
		kind: kEquijoinSize, cfg: cfg, values: len(in.mR) + len(in.mS),
		recv: func(ctx context.Context, cfg core.Config, conn transport.Conn) (func() error, error) {
			res, err := core.EquijoinSizeReceiver(ctx, cfg, conn, in.mR)
			if err != nil {
				return nil, err
			}
			return func() error { return checkJoinSize(res, in.wantJoin, len(in.mS)) }, nil
		},
		send: func(ctx context.Context, cfg core.Config, conn transport.Conn) error {
			_, err := core.EquijoinSizeSender(ctx, cfg, conn, in.mS)
			return err
		},
	}
}

// Closed forms.  The C_h terms add the section 3.2.2 collision pass —
// one more hash per value inside the program's hashSet, outside the
// section 6.1 census — so that predicted hashes match observed ones.

func headerLen(b group.Backend) int64 { return wire.HeaderLen(b.Code()) }

func predictIntersection(b group.Backend, nS, nR, chunk int) prediction {
	ops := costmodel.IntersectionOps(nS, nR)
	w := costmodel.IntersectionWireCostChunked(nS, nR, b.ElementLen(), chunk).WithHeaderLen(headerLen(b))
	return prediction{ce: float64(ops.Ce), ch: float64(ops.Ch) + float64(nS+nR), wireBytes: float64(w.TotalWireBytes())}
}

func predictJoin(b group.Backend, nS, nR, shared, extLen, chunk int) prediction {
	ops := costmodel.JoinOps(nS, nR, shared)
	ctLen := kenc.NewHybrid(b).CiphertextLen(extLen)
	w := costmodel.JoinWireCostChunked(nS, nR, b.ElementLen(), ctLen, chunk).WithHeaderLen(headerLen(b))
	return prediction{
		ce: float64(ops.Ce), ch: float64(ops.Ch) + float64(nS+nR), ck: float64(ops.CK),
		wireBytes: float64(w.TotalWireBytes()),
	}
}

func (p prediction) plus(o prediction) prediction {
	return prediction{ce: p.ce + o.ce, ch: p.ch + o.ch, ck: p.ck + o.ck, wireBytes: p.wireBytes + o.wireBytes}
}

// shardSizes partitions values the way the program's coordinator does
// (the bucket is the first 8 bytes of SHA-256 over h(v)'s fixed-width
// encoding, mod k).  Both parties must agree on this rule, so it is part
// of the protocol, and a drift shows as a non-zero wire residual.
func shardSizes(b group.Backend, values [][]byte, k int) []int {
	sizes := make([]int, k)
	buf := make([]byte, b.ElementLen())
	for _, x := range oracle.New(b).HashAll(values) {
		sum := sha256.Sum256(x.FillBytes(buf))
		sizes[binary.BigEndian.Uint64(sum[:8])%uint64(k)]++
	}
	return sizes
}

func predictShardedIntersection(b group.Backend, vS, vR [][]byte, k, chunk int) prediction {
	shardS, shardR := shardSizes(b, vS, k), shardSizes(b, vR, k)
	ops := costmodel.ShardedIntersectionOps(shardS, shardR)
	w := costmodel.ShardedOuterWireCost(wire.ShardedHeaderLen(b.Code(), k))
	for i := range shardS {
		w = w.Plus(costmodel.IntersectionWireCostChunked(shardS[i], shardR[i], b.ElementLen(), chunk).WithHeaderLen(headerLen(b)))
	}
	n := len(vS) + len(vR)
	return prediction{ce: float64(ops.Ce), ch: float64(ops.Ch) + float64(n), wireBytes: float64(w.TotalWireBytes())}
}

// isectParams sizes an intersection workload.
type isectParams struct {
	backend        group.Backend
	nR, nS, shared int
	chunk, shards  int
}

func newIsectWorld(e *env, g *valueGen, p isectParams) *pipeWorld {
	in := genSets(g, p.nR, p.nS, p.shared)
	cfg := core.Config{Group: p.backend, ChunkSize: p.chunk, Shards: p.shards}
	w := &pipeWorld{e: e, legs: []leg{intersectionLeg(cfg, in)}}
	w.f = facts{
		backend:     p.backend,
		hashed:      append(append([][]byte(nil), in.vR...), in.vS...),
		senderSet:   in.vS,
		hashedPerOp: p.nR + p.nS,
	}
	if p.shards > 1 {
		w.f.predict = func(float64) prediction {
			return predictShardedIntersection(p.backend, in.vS, in.vR, p.shards, p.chunk)
		}
		w.f.k1 = func(ctx context.Context) outcome {
			k1cfg := cfg
			k1cfg.Shards = 0
			return (&pipeWorld{e: &env{}, legs: []leg{intersectionLeg(k1cfg, in)}}).op(ctx, 0, 0)
		}
	} else {
		w.f.predict = func(float64) prediction { return predictIntersection(p.backend, p.nS, p.nR, p.chunk) }
	}
	return w
}

// fourParams sizes the four-protocol workload.
type fourParams struct {
	backend                     group.Backend
	n, shared, extLen           int
	draws, distinctR, distinctS int
	sharedDistinct              int
}

func newFourWorld(e *env, g *valueGen, p fourParams) *pipeWorld {
	sets := genSets(g, p.n, p.n, p.shared)
	join := genJoin(g, p.n, p.n, p.shared, p.extLen)
	sizes := genSets(g, p.n, p.n, p.shared)
	multi := genMultisets(g, p.draws, p.distinctR, p.distinctS, p.sharedDistinct)
	cfg := core.Config{Group: p.backend}
	w := &pipeWorld{e: e, legs: []leg{
		intersectionLeg(cfg, sets), joinLeg(cfg, join), sizeLeg(cfg, sizes), joinSizeLeg(cfg, multi),
	}}
	hashed := append(append([][]byte(nil), sets.vR...), sets.vS...)
	hashed = append(append(hashed, join.vR...), sizes.vR...)
	w.f = facts{
		backend: p.backend, hashed: hashed, senderSet: sets.vS,
		hashedPerOp: 6*p.n + 2*p.draws,
		predict: func(float64) prediction {
			isect := predictIntersection(p.backend, p.n, p.n, 0)
			return isect.plus(predictJoin(p.backend, p.n, p.n, p.shared, p.extLen, 0)).
				plus(isect). // intersection size: same census as intersection
				plus(predictIntersection(p.backend, p.draws, p.draws, 0))
		},
	}
	return w
}

// joinParams sizes the streamed equijoin workload.
type joinParams struct {
	backend                group.Backend
	nR, nS, shared, extLen int
	chunk                  int
}

func newJoinWorld(e *env, g *valueGen, p joinParams) *pipeWorld {
	in := genJoin(g, p.nR, p.nS, p.shared, p.extLen)
	cfg := core.Config{Group: p.backend, ChunkSize: p.chunk}
	w := &pipeWorld{e: e, legs: []leg{joinLeg(cfg, in)}, t1: true}
	vS := make([][]byte, len(in.records))
	for i, r := range in.records {
		vS[i] = r.Value
	}
	w.f = facts{
		backend: p.backend, hashed: append(append([][]byte(nil), in.vR...), vS...), senderSet: vS,
		hashedPerOp: p.nR + p.nS, linkBps: transport.T1.BitsPerSecond,
		predict: func(float64) prediction {
			return predictJoin(p.backend, p.nS, p.nR, p.shared, p.extLen, p.chunk)
		},
	}
	return w
}
