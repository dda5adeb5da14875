package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"minshare/internal/obs"
	"minshare/internal/transport"
)

// assemble turns the traced phase's spans, the program's own census and
// the replays into the per-layer metrics.  It returns the census checks
// that failed: a non-zero cost-model residual means the program no
// longer does what its certified closed forms say.
func assemble(m Metrics, e *env, f facts, win window, plain, traced *region, rep *replayed) (problems []string) {
	ops := float64(len(traced.outs))
	sum := func(match func(*span) bool) agg { return e.tr.sum(win.lo, win.hi, match) }
	perOp := func(x float64) float64 { return ratio(x, ops) }
	tracedP50 := median(seconds(traced.durations()))

	// group
	apply, contains, mapTo := sum(ofKind(kApply)), sum(ofKind(kContains)), sum(ofKind(kMapToElement))
	m.set("group.apply.count", perOp(float64(apply.n)))
	m.set("group.apply.busy_s", perOp(apply.busy()))
	m.set("group.apply.ns_per_call", ratio(float64(apply.ns), float64(apply.n)))
	m.set("group.contains.count", perOp(float64(contains.n)))
	m.set("group.contains.busy_s", perOp(contains.busy()))
	m.set("group.map_to_element.count", perOp(float64(mapTo.n)))
	m.set("group.map_to_element.busy_s", perOp(mapTo.busy()))
	m.set("group.apply.allocs_per_call", rep.applyAllocs)
	m.set("group.apply.alloc_bytes_per_call", rep.applyAllocBytes)
	m.set("group.contains.allocs_per_call", rep.containsAllocs)

	// commutative
	enc, dec, keygen := sum(ofKind(kEncrypt)), sum(ofKind(kDecrypt)), sum(ofKind(kKeygen))
	isGroup := func(s *span) bool { return s.kind == kApply || s.kind == kContains || s.kind == kMapToElement }
	under := func(o owner) agg { return sum(func(s *span) bool { return isGroup(s) && s.via == o }) }
	m.set("commutative.encrypt.count", perOp(float64(enc.n)))
	m.set("commutative.decrypt.count", perOp(float64(dec.n)))
	m.set("commutative.keygen.count", perOp(float64(keygen.n)))
	m.set("commutative.encrypt.busy_s", perOp(enc.busy()))
	m.set("commutative.decrypt.busy_s", perOp(dec.busy()))
	m.set("commutative.self_s", perOp(enc.busy()+dec.busy()-under(viaCommutative).busy()))
	m.set("commutative.encrypt_all.values_per_s", rep.encryptAllPerS)
	m.set("commutative.encrypt_all.parallel_efficiency", rep.encryptAllEfficiency)
	m.set("commutative.cachedset.build_s", rep.cachedBuild.Seconds())
	m.set("commutative.cachedset.memory_bytes", float64(rep.cachedBytes))
	if rep.applyDeltaCalls > 0 {
		// The sender makes one ApplyDelta call per update it pushes, so the
		// calls are counted as the SubUpdate frames seen; their cost comes
		// from the replay, one call per op on that op's churn.
		m.set("commutative.apply_delta.count", perOp(float64(rep.subUpdates)))
		m.set("commutative.apply_delta.busy_s", rep.applyDeltaBusy.Seconds()/float64(rep.applyDeltaCalls))
	}

	// oracle: the calls are counted in place (every Hash ends in exactly
	// one MapToElement on the oracle's own backend instance); their cost
	// comes from the replay.
	hashes := sum(func(s *span) bool { return s.kind == kMapToElement && s.via == viaOracle })
	hashBusy := float64(hashes.n) * rep.hashNsPerValue / 1e9
	m.set("oracle.hash.count", perOp(float64(hashes.n)))
	m.set("oracle.hash.busy_s", perOp(hashBusy))
	m.set("oracle.hash.ns_per_value", rep.hashNsPerValue)
	m.set("oracle.xof_self_s", perOp(hashBusy*(1-rep.mapShare)))
	m.set("oracle.detect_collisions.busy_s", rep.collisionsPerVal*float64(f.hashedPerOp))

	// kenc
	kEnc, kDec := sum(ofKind(kKencEncrypt)), sum(ofKind(kKencDecrypt))
	m.set("kenc.encrypt.count", perOp(float64(kEnc.n)))
	m.set("kenc.encrypt.busy_s", perOp(kEnc.busy()))
	m.set("kenc.encrypt.bytes", perOp(float64(kEnc.bytes)))
	m.set("kenc.decrypt.count", perOp(float64(kDec.n)))
	m.set("kenc.decrypt.busy_s", perOp(kDec.busy()))
	m.set("kenc.ciphertext_overhead_bytes_per_record", ratio(float64(kEnc.aux-kEnc.bytes), float64(kEnc.n)))

	// wire: every frame is encoded once and decoded once.
	m.set("wire.encode.count", perOp(float64(rep.frames)))
	m.set("wire.encode.busy_s", perOp(rep.encodeBusy.Seconds()))
	m.set("wire.decode.count", perOp(float64(rep.frames)))
	m.set("wire.decode.busy_s", perOp(rep.decodeBusy.Seconds()))
	m.set("wire.decode.allocs_per_elem", ratio(float64(rep.decodeAllocs), float64(rep.elems)))
	m.set("wire.frames_per_op", perOp(float64(rep.frames)))
	m.set("wire.bytes_per_elem", ratio(float64(rep.frameBytes), float64(rep.elems)))
	m.set("wire.header_bytes", perOp(float64(rep.headerBytes)))

	// transport: counts over both endpoints; byte and framing figures on
	// the receiver endpoint, which sees every frame exactly once.
	sends, recvs := sum(ofKind(kSend)), sum(ofKind(kRecv))
	atR := func(s *span) bool { return (s.kind == kSend || s.kind == kRecv) && s.role == roleReceiver }
	rSends := sum(func(s *span) bool { return atR(s) && s.kind == kSend })
	rRecvs := sum(func(s *span) bool { return atR(s) && s.kind == kRecv })
	rFrames := float64(rSends.n + rRecvs.n)
	rawBytes := float64(rSends.aux + rRecvs.aux)
	codecBytes := float64(rSends.bytes + rRecvs.bytes)
	muxData := sum(func(s *span) bool { return atR(s) && s.bytes > 0 && s.aux == s.bytes+1 })
	control := sum(func(s *span) bool { return atR(s) && s.bytes == 0 })
	m.set("transport.send.count", perOp(float64(sends.n)))
	m.set("transport.send.busy_s", perOp(sends.busy()))
	m.set("transport.send.bytes", perOp(float64(sends.aux)))
	m.set("transport.recv.count", perOp(float64(recvs.n)))
	m.set("transport.recv_wait_s.receiver", perOp(rRecvs.busy()))
	m.set("transport.recv_wait_s.sender", perOp(sum(func(s *span) bool { return s.kind == kRecv && s.role == roleSender }).busy()))
	m.set("transport.framing_overhead_bytes", perOp(rawBytes-codecBytes+rFrames*transport.FrameOverhead))
	if f.linkBps > 0 {
		// Each direction has a line of its own; the busier one bounds the op.
		line := func(a agg) float64 { return (float64(a.aux) + float64(a.n)*transport.FrameOverhead) * 8 / f.linkBps }
		m.set("transport.link_busy_share", ratio(perOp(math.Max(line(rSends), line(rRecvs))), tracedP50))
	}
	m.set("transport.mux.frames", perOp(float64(muxData.n)))
	m.set("transport.mux.control_frames", perOp(float64(control.n)))
	dials, setups := e.tr.sessionSetups()
	m.set("transport.tcp.dial_s", median(dials))
	m.set("party.session_setup_s", median(setups))

	// core
	m.set("core.intersection.wall_s", perOp(sum(ofKind(kIntersection)).busy()))
	m.set("core.equijoin.wall_s", perOp(sum(ofKind(kEquijoin)).busy()))
	m.set("core.intersection_size.wall_s", perOp(sum(ofKind(kIntersectionSize)).busy()))
	m.set("core.equijoin_size.wall_s", perOp(sum(ofKind(kEquijoinSize)).busy()))
	m.set("core.receiver.wall_s", perOp(sum(ofKind(kReceiver)).busy()))
	m.set("core.sender.wall_s", perOp(sum(ofKind(kSender)).busy()))
	m.set("core.receiver.self_s", perOp(float64(e.tr.selfOf(win.lo, win.hi, kReceiver))/1e9))
	if f.table == nil {
		// A served party's crypto spans cannot name their session (its
		// Config is fixed per server), so sender self time exists only
		// where both parties run in-process.
		m.set("core.sender.self_s", perOp(float64(e.tr.selfOf(win.lo, win.hi, kSender))/1e9))
	}
	// Unattributed CPU: process CPU minus what the layers account for.
	// Span durations cannot stand in for CPU here — with both parties'
	// worker pools on two cores a span's wall time includes run-queue wait —
	// so the group and oracle layers are priced as calls × the uncontended
	// per-call cost the replays measured.  The scheme wrapper's own time is
	// left out: it is a few hundred ns of real work per call, and what the
	// spans show beyond that is scheduling.
	layerCPU := (float64(apply.n)*rep.applyNs+float64(contains.n)*rep.containsNs)/1e9 + hashBusy +
		(kEnc.busy() + kDec.busy() - under(viaKenc).busy()) +
		rep.encodeBusy.Seconds() + rep.decodeBusy.Seconds() + sends.busy() + sum(ofKind(kMutation)).busy()
	cpu := (traced.u1.cpu - traced.u0.cpu).Seconds()
	m.set("core.unattributed_cpu_share", ratio(cpu-layerCPU, cpu))
	hits := float64(win.obs1.cache.Hits - win.obs0.cache.Hits)
	misses := float64(win.obs1.cache.Misses - win.obs0.cache.Misses)
	m.set("core.cache.hits", perOp(hits))
	m.set("core.cache.misses", perOp(misses))
	m.set("core.cache.hit_ratio", ratio(hits, hits+misses))
	if f.cache != nil {
		m.set("core.cache.bytes", float64(f.cache.MemoryBytes()))
	}
	m.set("core.shard.wall_ratio_vs_k1", ratio(median(seconds(plain.durations())), rep.k1Wall.Seconds()))
	pushes := perOp(float64(rep.subUpdates))
	m.set("core.standing.pushes_per_op", pushes)
	m.set("core.standing.update_bytes_per_op", perOp(float64(rep.subUpdateBytes)))

	// party: the served party's own lifecycle census.
	m.set("party.sessions.count", perOp(float64(win.obs1.sessions-win.obs0.sessions)))
	m.set("party.sessions.failed", perOp(float64(win.obs1.failed-win.obs0.failed)))
	m.set("party.sessions.rejected", perOp(float64(win.obs1.rejected-win.obs0.rejected)))

	// reldb
	deltas := sum(ofKind(kDeltaSince))
	m.set("reldb.distinct_values.busy_s", rep.distinctValues.Seconds())
	m.set("reldb.ext_payloads.busy_s", rep.extPayloads.Seconds())
	m.set("reldb.mutation.busy_s", perOp(sum(ofKind(kMutation)).busy()))
	m.set("reldb.delta_since.count", perOp(float64(deltas.n)))
	m.set("reldb.delta_since.busy_s", perOp(deltas.busy()))

	// obs: the program's own census over the same window.
	c0, c1 := win.obs0.counters, win.obs1.counters
	modexp := perOp(float64(c1.ModExps() - c0.ModExps()))
	m.set("obs.counters.modexp", modexp)
	m.set("obs.counters.oracle_hashes", perOp(float64(c1.OracleHashes-c0.OracleHashes)))
	m.set("obs.counters.frames", perOp(float64(c1.FramesSent+c1.FramesRecv-c0.FramesSent-c0.FramesRecv)))
	m.set("obs.counters.wire_bytes", perOp(float64(c1.TotalWireBytes()-c0.TotalWireBytes())))
	phases := e.phaseTotals(win)
	m.set("obs.phase.hash_to_group_s", perOp(phases["hash-to-group"].Seconds()))
	m.set("obs.phase.bulk_encrypt_s", perOp(phases["bulk-encrypt"].Seconds()))
	m.set("obs.phase.exchange_s", perOp(phases["exchange"].Seconds()))
	m.set("obs.phase.match_s", perOp(phases["match"].Seconds()))
	m.set("obs.traced_overhead_share", ratio(tracedP50, median(seconds(plain.durations())))-1)

	// costmodel: certified counts against the census, and the paper's
	// section 6 estimate — counts times per-operation constants measured
	// uncontended in this same run (C_e from the standalone Apply loop,
	// C_h from the oracle replay), spread over the processors, plus the
	// line time — against the measured wall.
	pred := f.predict(pushes)
	observedWire := perOp(codecBytes + (rFrames-float64(control.n))*transport.FrameOverhead)
	m.set("costmodel.ce_predicted", pred.ce)
	m.set("costmodel.ce_residual", modexp-pred.ce)
	m.set("costmodel.wire_bytes_predicted", pred.wireBytes)
	m.set("costmodel.wire_bytes_residual", observedWire-pred.wireBytes)
	ckNs := ratio(float64(kEnc.ns+kDec.ns), float64(kEnc.n+kDec.n))
	compute := (pred.ce*rep.applyNs + pred.ch*rep.hashNsPerValue + pred.ck*ckNs) / 1e9 / float64(runtime.GOMAXPROCS(0))
	line := 0.0
	if f.linkBps > 0 {
		line = pred.wireBytes * 8 / f.linkBps
	}
	m.set("costmodel.predicted_wall_s", compute+line)
	m.set("costmodel.wall_residual_share", ratio(tracedP50-(compute+line), tracedP50))
	const eps = 1e-6
	if r := modexp - pred.ce; math.Abs(r) > eps {
		problems = append(problems, fmt.Sprintf("costmodel.ce_residual = %v: %v C_e per op observed, %v certified", r, modexp, pred.ce))
	}
	if r := observedWire - pred.wireBytes; math.Abs(r) > eps {
		problems = append(problems, fmt.Sprintf("costmodel.wire_bytes_residual = %v: %v B per op observed, %v certified", r, observedWire, pred.wireBytes))
	}

	// go_runtime
	m.set("go_runtime.gc_cycles_per_op", perOp(float64(traced.u1.gcCycles-traced.u0.gcCycles)))
	m.set("go_runtime.gc_pause_s_per_op", perOp((traced.u1.gcPause - traced.u0.gcPause).Seconds()))
	return problems
}

// sessionSetups pairs every dial with the first frame received on the
// connection it made (the server's header reply): it returns the dial
// durations and the dial-start-to-reply times, in seconds, over the
// tracer's whole life — a standing workload dials once, during set-up.
func (t *tracer) sessionSetups() (dials, setups []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	firstRecv := make(map[int32]int64) // by the scope both spans were recorded under
	for i := range t.spans {
		s := &t.spans[i]
		if s.kind != kRecv || s.role != roleReceiver {
			continue
		}
		if end, ok := firstRecv[s.parent]; !ok || s.end < end {
			firstRecv[s.parent] = s.end
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.kind != kDial {
			continue
		}
		dials = append(dials, float64(s.dur())/1e9)
		if end, ok := firstRecv[s.parent]; ok {
			setups = append(setups, float64(end-s.start)/1e9)
		}
	}
	return dials, setups
}

// phaseTotals sums the program's own phase spans, by name, over the
// sessions both registries finished inside the window.
func (e *env) phaseTotals(win window) map[string]time.Duration {
	from := e.tr.epoch.Add(time.Duration(win.lo))
	totals := make(map[string]time.Duration)
	var walk func(spans []obs.SpanSnapshot)
	walk = func(spans []obs.SpanSnapshot) {
		for _, sp := range spans {
			totals[sp.Name] += sp.Duration
			walk(sp.Children)
		}
	}
	for _, reg := range []*obs.Registry{e.reg, e.srvReg} {
		for _, snap := range reg.Flight().Snapshots() {
			if !snap.Start.Before(from) {
				walk(snap.Spans)
			}
		}
	}
	return totals
}

// censusAgrees checks, over the traced env's whole life, that the
// program's own counters equal what the decorators counted at the same
// boundaries.  It is called once everything has stopped.
func censusAgrees(e *env) (problems []string) {
	all := func(match func(*span) bool) agg { return e.tr.sum(0, math.MaxInt64, match) }
	frames := all(func(s *span) bool { return (s.kind == kSend || s.kind == kRecv) && s.bytes > 0 })
	got := e.census().counters
	checks := []struct {
		name      string
		obs, seen int64
	}{
		{"modexp", got.ModExps(), all(ofKind(kEncrypt)).n + all(ofKind(kDecrypt)).n},
		{"keygens", got.KeyGens, all(ofKind(kKeygen)).n},
		{"oracle_hashes", got.OracleHashes, all(func(s *span) bool { return s.kind == kMapToElement && s.via == viaOracle }).n},
		{"payload_encrypts", got.PayloadEncrypts, all(ofKind(kKencEncrypt)).n},
		{"payload_decrypts", got.PayloadDecrypts, all(ofKind(kKencDecrypt)).n},
		{"frames", got.FramesSent + got.FramesRecv, frames.n},
		{"wire_bytes", got.TotalWireBytes(), frames.bytes + frames.n*transport.FrameOverhead},
	}
	for _, c := range checks {
		if c.obs != c.seen {
			problems = append(problems, fmt.Sprintf("obs.counters.%s = %d but the decorators counted %d", c.name, c.obs, c.seen))
		}
	}
	return problems
}
