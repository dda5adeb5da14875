package bench

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"minshare/internal/core"
	"minshare/internal/costmodel"
	"minshare/internal/group"
	"minshare/internal/obs"
	"minshare/internal/party"
	"minshare/internal/reldb"
	"minshare/internal/transport"
)

// The two served workloads: a party.Server bound to a live reldb table
// on loopback TCP, driven through party.Client.

const servedCol = "id"

var servedSchema = reldb.MustSchema(
	reldb.Column{Name: servedCol, Type: reldb.TypeString},
	reldb.Column{Name: "note", Type: reldb.TypeString},
)

func servedRow(id, note string) reldb.Row {
	return reldb.Row{reldb.String(id), reldb.String(note)}
}

func encodeID(id string) []byte { return reldb.String(id).Encode() }

// listener is a running party.Server.  It accepts connections itself and
// hands each to Server.HandleConn — the one session path either kind of
// run takes — so that a traced env can decorate the session's connection;
// listen then also attaches the env's server registry and decorates
// srv.Config.
type listener struct {
	ln     net.Listener
	cancel context.CancelFunc
	done   chan struct{}
}

func listen(e *env, srv *party.Server) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: listening on loopback: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &listener{ln: ln, cancel: cancel, done: make(chan struct{})}
	if e.traced() {
		srv.Obs = e.srvReg
		srv.Config = tracedConfig(srv.Config, scope{tr: e.tr, op: noOp, role: roleSender})
	}
	go func() {
		defer close(l.done)
		var wg sync.WaitGroup
		defer wg.Wait()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed by stop
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var conn transport.Conn = transport.NewTCP(nc)
				if e.traced() {
					sc, end := e.root(noOp).open(kSender, roleSender)
					defer end()
					conn = &tracedConn{inner: conn, sc: sc, log: e.log}
				}
				// A failed session shows up at the client and, traced, in
				// the obs census (party.sessions.failed).
				_ = srv.HandleConn(ctx, nc.RemoteAddr().String(), conn)
				_ = conn.Close()
			}()
		}
	}()
	return l, nil
}

func (l *listener) addr() string { return l.ln.Addr().String() }

func (l *listener) stop() {
	l.cancel()
	_ = l.ln.Close()
	<-l.done
}

// dialer returns the connection factory of one client: a TCP dial with
// the receiver-endpoint meter, and under sc (traced) a dial span and the
// conn decorator that also captures frames for the wire replay.
func dialer(e *env, addr string, sc scope) func(ctx context.Context) (transport.Conn, error) {
	return func(ctx context.Context) (transport.Conn, error) {
		var start int64
		if e.traced() {
			start = sc.tr.now()
		}
		c, err := transport.Dial(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if !e.traced() {
			return e.meter(c), nil
		}
		sc.leaf(kDial, viaCore, start, 0, 0)
		return &tracedConn{inner: e.meter(c), sc: sc, log: e.log, capture: true}, nil
	}
}

// serveParams sizes serve_warm_tcp.
type serveParams struct {
	backend       group.Backend
	rows          int // table rows, one distinct id each
	nR, hits      int // query size and how many of its values are served
	clients, pool int // concurrent callers; distinct queries per caller
}

// query is one client query with its plaintext answer.
type query struct {
	vals     [][]byte
	wantVals [][]byte
	wantJoin []core.JoinMatch
}

type serveWorld struct {
	e       *env
	p       serveParams
	l       *listener
	tbl     *reldb.Table
	cache   *core.SenderSetCache
	cfg     core.Config
	queries [][]query       // per client
	plain   []*party.Client // per client, plain env only
	f       facts
}

func newServeWorld(ctx context.Context, e *env, rng *rand.Rand, p serveParams) (*serveWorld, error) {
	g := newValueGen(rng)
	w := &serveWorld{e: e, p: p, cfg: core.Config{Group: p.backend}}
	w.tbl = reldb.NewTable("customers", servedSchema)
	ids := make([]string, p.rows)
	ext := make(map[string][]byte, p.rows)
	for i := range ids {
		ids[i] = string(g.next("id"))
		row := servedRow(ids[i], string(g.next("note")))
		if err := w.tbl.Insert(row); err != nil {
			return nil, err
		}
		ext[ids[i]] = reldb.EncodeRows([]reldb.Row{row})
	}
	extLen := len(ext[ids[0]]) // ids and notes are fixed-width, so every ext(v) is this long
	w.queries = make([][]query, p.clients)
	for c := range w.queries {
		for k := 0; k < p.pool; k++ {
			var q query
			picked := rng.Perm(p.rows)[:p.hits]
			names := make([]string, 0, p.nR)
			for _, j := range picked {
				names = append(names, ids[j])
			}
			for len(names) < p.nR {
				names = append(names, string(g.next("miss")))
			}
			shuffle(rng, names)
			for _, n := range names {
				v := encodeID(n)
				q.vals = append(q.vals, v)
				if x, ok := ext[n]; ok {
					q.wantVals = append(q.wantVals, v)
					q.wantJoin = append(q.wantJoin, core.JoinMatch{Value: v, Ext: x})
				}
			}
			w.queries[c] = append(w.queries[c], q)
		}
	}

	var stats *obs.CacheStats
	if e.traced() {
		stats = e.srvReg.Cache()
	}
	w.cache = core.NewSenderSetCache(0, stats)
	binding, err := party.BindTable(w.tbl, servedCol)
	if err != nil {
		return nil, err
	}
	srv := &party.Server{Config: w.cfg, Source: binding, SetCache: w.cache}
	if w.l, err = listen(e, srv); err != nil {
		return nil, err
	}
	if !e.traced() {
		for range p.clients {
			w.plain = append(w.plain, party.NewClientConnFunc(w.cfg, dialer(e, w.l.addr(), scope{})))
		}
	}
	// Warm the cache: one round of the four protocols fills the four
	// slots both clients share (the slot key is the peer host).
	for slot := 0; slot < w.round(); slot++ {
		if err := checked(w.run(ctx, 0, slot, noOp)); err != nil {
			w.close()
			return nil, fmt.Errorf("bench: warming the set cache: %w", err)
		}
	}
	served, err := w.tbl.DistinctValues(servedCol)
	if err != nil {
		w.close()
		return nil, err
	}
	w.f = facts{
		backend: p.backend, hashed: served, senderSet: served, hashedPerOp: p.nR,
		table: w.tbl, col: servedCol, cache: w.cache,
		predict: func(float64) prediction {
			// One op is a quarter of a round of warm runs: the sender
			// replays its cached set, so only the receiver's side and the
			// per-session work over Y_R remain.
			nS, nR := p.rows, p.nR
			isectOps := costmodel.IntersectionOpsWarm(nS, nR)
			joinOps := costmodel.JoinOpsWarm(nS, nR, p.hits)
			isect := prediction{
				ce: float64(isectOps.Ce), ch: float64(isectOps.Ch) + float64(nR),
				wireBytes: predictIntersection(p.backend, nS, nR, 0).wireBytes,
			}
			join := prediction{
				ce: float64(joinOps.Ce), ch: float64(joinOps.Ch) + float64(nR), ck: float64(joinOps.CK),
				wireBytes: predictJoin(p.backend, nS, nR, p.hits, extLen, 0).wireBytes,
			}
			round := isect.plus(join).plus(isect).plus(isect)
			n := float64(w.round())
			return prediction{ce: round.ce / n, ch: round.ch / n, ck: round.ck / n, wireBytes: round.wireBytes / n}
		},
	}
	return w, nil
}

func (w *serveWorld) clients() int { return w.p.clients }
func (w *serveWorld) round() int   { return 4 }
func (w *serveWorld) facts() facts { return w.f }
func (w *serveWorld) close()       { w.l.stop() }

func (w *serveWorld) op(ctx context.Context, c, i int) outcome {
	return w.run(ctx, c, i, i*w.p.clients+c)
}

// run executes client c's slot-th query — the protocol rotates with the
// slot — recording its spans under opID.
func (w *serveWorld) run(ctx context.Context, c, slot, opID int) outcome {
	q := w.queries[c][(slot/w.round())%len(w.queries[c])]
	protoKind := [...]kind{kIntersection, kEquijoin, kIntersectionSize, kEquijoinSize}[slot%w.round()]

	client := (*party.Client)(nil)
	end := func(error) {}
	if w.e.traced() {
		opScope, endOp := w.e.root(opID).open(kOp, roleNone)
		legScope, endLeg := opScope.open(protoKind, roleNone)
		rScope, endR := legScope.open(kReceiver, roleReceiver)
		sess := w.e.reg.StartSession(obs.SessionInfo{Protocol: kindNames[protoKind], Role: "receiver", LocalSetSize: len(q.vals)})
		ctx = obs.WithSession(ctx, sess)
		client = party.NewClientConnFunc(tracedConfig(w.cfg, rScope), dialer(w.e, w.l.addr(), rScope))
		end = func(err error) { endR(); endLeg(); endOp(); sess.End(err) }
	} else {
		client = w.plain[c]
	}

	out := outcome{values: len(q.vals) + w.p.rows}
	start := time.Now()
	switch protoKind {
	case kIntersection:
		res, err := client.Intersect(ctx, q.vals)
		out.err, out.check = err, func() error { return checkIntersection(res, q.wantVals, w.p.rows) }
	case kEquijoin:
		res, err := client.Join(ctx, q.vals)
		out.err, out.check = err, func() error { return checkJoin(res, q.wantJoin, w.p.rows) }
	case kIntersectionSize:
		res, err := client.IntersectSize(ctx, q.vals)
		out.err, out.check = err, func() error { return checkSize(res, len(q.wantVals), w.p.rows) }
	default:
		res, err := client.JoinSize(ctx, q.vals)
		out.err, out.check = err, func() error { return checkJoinSize(res, len(q.wantVals), w.p.rows) }
	}
	out.dur = time.Since(start)
	end(out.err)
	return out
}

// standingParams sizes standing_churn.
type standingParams struct {
	backend group.Backend
	rows    int // served table rows
	nR      int // standing query size, half of it served at any time
	// churn per op: rows deleted and inserted, and how many of each
	// touch the query.
	del, ins, touch int
	// churnMax forwards to party.Server.DeltaChurnMax (0 = the default
	// quarter-set bound, which tiny test tables exceed).
	churnMax float64
}

type standingWorld struct {
	e   *env
	p   standingParams
	l   *listener
	tbl *reldb.Table
	q   *party.StandingIntersect
	rng *rand.Rand
	g   *valueGen

	query           []string // the standing query's ids, in input order
	present, absent []string // query ids in / not in the table
	others          []string // served ids outside the query
	inTable         map[string]bool

	end   func(error)
	steps []churnStep
	f     facts
}

func newStandingWorld(ctx context.Context, e *env, rng *rand.Rand, p standingParams) (*standingWorld, error) {
	w := &standingWorld{e: e, p: p, rng: rng, g: newValueGen(rng), inTable: make(map[string]bool)}
	w.tbl = reldb.NewTable("accounts", servedSchema)
	insert := func(id string) error {
		w.inTable[id] = true
		return w.tbl.Insert(servedRow(id, string(w.g.next("note"))))
	}
	for i := 0; i < p.nR; i++ {
		id := string(w.g.next("q"))
		w.query = append(w.query, id)
		if i < p.nR/2 {
			w.present = append(w.present, id)
		} else {
			w.absent = append(w.absent, id)
		}
	}
	for _, id := range w.present {
		if err := insert(id); err != nil {
			return nil, err
		}
	}
	for len(w.others) < p.rows-len(w.present) {
		id := string(w.g.next("id"))
		w.others = append(w.others, id)
		if err := insert(id); err != nil {
			return nil, err
		}
	}
	shuffle(rng, w.query)

	binding, err := party.BindTable(w.tbl, servedCol)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Group: p.backend}
	srv := &party.Server{Config: cfg, Source: binding, Standing: true, DeltaChurnMax: p.churnMax}
	if w.l, err = listen(e, srv); err != nil {
		return nil, err
	}
	w.end = func(error) {}
	sc := scope{}
	if e.traced() {
		var endR func()
		sc, endR = e.root(noOp).open(kReceiver, roleReceiver)
		sess := e.reg.StartSession(obs.SessionInfo{Protocol: kindNames[kIntersection], Role: "receiver", LocalSetSize: p.nR})
		ctx = obs.WithSession(ctx, sess)
		cfg = tracedConfig(cfg, sc)
		w.end = func(err error) { endR(); sess.End(err) }
		if w.f.base, err = w.tbl.DistinctValues(servedCol); err != nil {
			w.l.stop()
			return nil, err
		}
	}
	vals := make([][]byte, len(w.query))
	for i, id := range w.query {
		vals[i] = encodeID(id)
	}
	client := party.NewClientConnFunc(cfg, dialer(e, w.l.addr(), sc))
	if w.q, err = client.IntersectStanding(ctx, vals); err != nil {
		w.end(err)
		w.l.stop()
		return nil, fmt.Errorf("bench: standing base session: %w", err)
	}
	if err := checkIntersection(w.q.Result(), w.want(), p.rows); err != nil {
		w.close()
		return nil, fmt.Errorf("bench: standing base session: %w", err)
	}
	// One untimed churn op, so the first timed push is not the first ever.
	if err := checked(w.op(ctx, 0, noOp)); err != nil {
		w.close()
		return nil, fmt.Errorf("bench: standing warm-up op: %w", err)
	}

	served, err := w.tbl.DistinctValues(servedCol)
	if err != nil {
		w.close()
		return nil, err
	}
	w.f.backend, w.f.hashed, w.f.senderSet, w.f.hashedPerOp = p.backend, served, served, p.ins+p.del
	w.f.table, w.f.col = w.tbl, servedCol
	w.f.predict = func(pushes float64) prediction {
		// Each churned value is re-encrypted once by S and once by R and
		// crosses the wire once, however the pump batches it; every push
		// adds one SubUpdate/SubAck envelope.
		ops := costmodel.IntersectionUpdateOps(p.ins, p.del)
		el := p.backend.ElementLen()
		one := costmodel.IntersectionDeltaWireCost(p.ins, p.del, el).TotalWireBytes()
		envelope := costmodel.IntersectionDeltaWireCost(0, 0, el).TotalWireBytes()
		return prediction{
			ce: float64(ops.Ce), ch: 2 * float64(ops.Ch),
			wireBytes: float64(one) + (pushes-1)*float64(envelope),
		}
	}
	return w, nil
}

func (w *standingWorld) clients() int { return 1 }
func (w *standingWorld) round() int   { return 1 }

func (w *standingWorld) facts() facts {
	f := w.f
	f.churn = w.steps
	return f
}

func (w *standingWorld) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := w.q.Close(ctx)
	w.end(err)
	w.l.stop()
}

// want is the standing query's plaintext answer: its ids currently in
// the table, in input order.
func (w *standingWorld) want() [][]byte {
	var out [][]byte
	for _, id := range w.query {
		if w.inTable[id] {
			out = append(out, encodeID(id))
		}
	}
	return out
}

// take removes and returns n random entries of *xs.
func take(rng *rand.Rand, xs *[]string, n int) []string {
	out := make([]string, 0, n)
	for ; n > 0; n-- {
		s := *xs
		j := rng.IntN(len(s))
		out = append(out, s[j])
		s[j] = s[len(s)-1]
		*xs = s[:len(s)-1]
	}
	return out
}

func (w *standingWorld) op(ctx context.Context, _, i int) outcome {
	// The churn schedule: drawn from the seed's stream, outside the op's
	// clock.  Query ids deleted now become insertable only from the next
	// op on, so no value cancels out inside one delta.
	delQ, insQ := take(w.rng, &w.present, w.p.touch), take(w.rng, &w.absent, w.p.touch)
	del := append(take(w.rng, &w.others, w.p.del-w.p.touch), delQ...)
	ins := append([]string(nil), insQ...)
	for len(ins) < w.p.ins {
		ins = append(ins, string(w.g.next("id")))
	}
	doomed := make(map[string]bool, len(del))
	for _, id := range del {
		doomed[id] = true
	}
	rows := make([]reldb.Row, len(ins))
	for j, id := range ins {
		rows[j] = servedRow(id, string(w.g.next("note")))
	}
	before := w.tbl.Version()

	endOp, endMut := func() {}, func() {}
	var opScope scope
	if w.e.traced() {
		opScope, endOp = w.e.root(i).open(kOp, roleNone)
		_, endMut = opScope.open(kMutation, roleNone)
	}
	out := outcome{values: len(del) + len(ins)}
	start := time.Now()
	w.tbl.Delete(func(r reldb.Row) bool { return doomed[r[0].AsString()] })
	for _, r := range rows {
		if out.err = w.tbl.Insert(r); out.err != nil {
			break
		}
	}
	endMut()
	var res *core.IntersectionResult
	for out.err == nil && w.q.Version() != w.tbl.Version() {
		res, out.err = w.q.Await(ctx)
	}
	out.dur = time.Since(start)
	endOp()

	for _, id := range del {
		delete(w.inTable, id)
	}
	for _, id := range ins {
		w.inTable[id] = true
	}
	w.present, w.absent = append(w.present, insQ...), append(w.absent, delQ...)
	w.others = append(w.others, ins[len(insQ):]...)
	want, nS := w.want(), len(w.inTable)
	out.check = func() error { return checkIntersection(res, want, nS) }

	if w.e.traced() {
		// Replay of the change-log read the sender's pump made for this
		// op, after the op: reldb has no seam to time it in place.
		start := opScope.tr.now()
		_, _ = w.tbl.DeltaSince(before, servedCol)
		opScope.leaf(kDeltaSince, viaCore, start, 0, 0)
		step := churnStep{}
		for _, id := range ins {
			step.ins = append(step.ins, encodeID(id))
		}
		for _, id := range del {
			step.del = append(step.del, encodeID(id))
		}
		w.steps = append(w.steps, step)
	}
	return out
}
