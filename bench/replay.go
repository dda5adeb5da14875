package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"minshare/internal/commutative"
	"minshare/internal/oracle"
	"minshare/internal/wire"
)

// Replays.  Some layers have no seam a decorator could sit on — the
// oracle is a concrete type, the codec is built inside the session, the
// table and the cached set are called from deep in core.  They are timed
// after the traced ops by calling their public functions on the ops' own
// inputs: the workload's values, the frames captured on the receiver
// endpoint, the served table, the recorded churn.

const (
	// standaloneCalls is the length of the single-goroutine loops that
	// count allocations per backend call.
	standaloneCalls = 2000
	// replayValues caps how many values the oracle and bulk-encryption
	// replays run over; per-value costs do not need the whole set.
	replayValues = 4096
	// replaySteps caps how many recorded churn steps ApplyDelta replays.
	replaySteps = 64
)

// window is the traced phase: tracer times and the program's own census
// at its two ends.
type window struct {
	lo, hi     int64
	obs0, obs1 census
}

// replayed holds what the replays measured.
type replayed struct {
	// The standalone loops: allocations and uncontended time per backend
	// call, one goroutine, nothing else running.
	applyAllocs, applyAllocBytes, containsAllocs float64
	applyNs, containsNs                          float64

	hashNsPerValue   float64
	mapShare         float64 // share of oracle.Hash spent in MapToElement
	collisionsPerVal float64 // seconds of DetectCollisions per value

	encryptAllPerS, encryptAllEfficiency float64
	cachedBuild                          time.Duration
	cachedBytes                          int64
	applyDeltaCalls                      int
	applyDeltaBusy                       time.Duration

	frames, elems, frameBytes, headerBytes int64
	decodeBusy, encodeBusy                 time.Duration
	decodeAllocs                           uint64

	subUpdates, subUpdateBytes int64

	k1Wall time.Duration // one unsharded op on the sharded workload's inputs

	distinctValues, extPayloads time.Duration // per call
}

func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func head[T any](xs []T, n int) []T {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

func replay(ctx context.Context, e *env, f facts, win window) (*replayed, error) {
	r := &replayed{}
	b := f.backend

	// oracle: HashAll over a private decorated backend, so the part of
	// each hash spent landing in the group can be split off.
	sample := head(f.hashed, replayValues)
	if len(sample) == 0 {
		return nil, fmt.Errorf("bench: workload names no values to replay the oracle on")
	}
	otr := newTracer()
	or := oracle.New(&tracedBackend{b, scope{tr: otr}, viaOracle})
	start := time.Now()
	or.HashAll(sample)
	hashWall := time.Since(start)
	r.hashNsPerValue = float64(hashWall.Nanoseconds()) / float64(len(sample))
	r.mapShare = ratio(float64(otr.sum(0, otr.now(), ofKind(kMapToElement)).ns), float64(hashWall.Nanoseconds()))
	plainOracle := oracle.New(b)
	start = time.Now()
	if cols := oracle.DetectCollisions(plainOracle, sample); len(cols) > 0 {
		return nil, fmt.Errorf("bench: the generated values collide under the oracle")
	}
	r.collisionsPerVal = time.Since(start).Seconds() / float64(len(sample))

	// group: allocations per call, single goroutine.
	xs := plainOracle.HashAll(head(sample, 64))
	key, err := b.RandomScalar(nil)
	if err != nil {
		return nil, fmt.Errorf("bench: standalone group loop: %w", err)
	}
	n0, b0 := mallocs()
	start = time.Now()
	for i := 0; i < standaloneCalls; i++ {
		if _, err := b.Apply(key, xs[i%len(xs)]); err != nil {
			return nil, fmt.Errorf("bench: standalone group loop: %w", err)
		}
	}
	r.applyNs = float64(time.Since(start).Nanoseconds()) / standaloneCalls
	n1, b1 := mallocs()
	start = time.Now()
	for i := 0; i < standaloneCalls; i++ {
		b.Contains(xs[i%len(xs)])
	}
	r.containsNs = float64(time.Since(start).Nanoseconds()) / standaloneCalls
	n2, _ := mallocs()
	r.applyAllocs = float64(n1-n0) / standaloneCalls
	r.applyAllocBytes = float64(b1-b0) / standaloneCalls
	r.containsAllocs = float64(n2-n1) / standaloneCalls

	// commutative: EncryptAll and the cached-set build over S's hashed set
	// (for the standing workload, the set as it stood before the churn).
	set := head(f.senderSet, 2*replayValues)
	if f.base != nil {
		set = f.base // ApplyDelta needs the whole set the churn applies to
	}
	hashed := plainOracle.HashAll(set)
	ctr := newTracer()
	scheme := commutative.NewPowerFn(b)
	timedScheme := &tracedScheme{scheme, scope{tr: ctr}}
	k, err := scheme.GenerateKey(nil)
	if err != nil {
		return nil, fmt.Errorf("bench: EncryptAll replay: %w", err)
	}
	start = time.Now()
	if _, err := commutative.EncryptAll(ctx, timedScheme, k, hashed, 0); err != nil {
		return nil, fmt.Errorf("bench: EncryptAll replay: %w", err)
	}
	encWall := time.Since(start)
	r.encryptAllPerS = ratio(float64(len(hashed)), encWall.Seconds())
	r.encryptAllEfficiency = ratio(ctr.sum(0, ctr.now(), ofKind(kEncrypt)).busy(), encWall.Seconds()*float64(runtime.GOMAXPROCS(0)))
	start = time.Now()
	cs, err := commutative.NewCachedSet(ctx, scheme, k, hashed, 0)
	if err != nil {
		return nil, fmt.Errorf("bench: CachedSet replay: %w", err)
	}
	r.cachedBuild = time.Since(start)
	r.cachedBytes = cs.MemoryBytes()

	// commutative: ApplyDelta over the recorded churn, in order.
	if f.base != nil {
		for _, step := range head(f.churn, replaySteps) {
			ins, del := plainOracle.HashAll(step.ins), plainOracle.HashAll(step.del)
			start = time.Now()
			next, _, err := cs.ApplyDelta(ctx, scheme, ins, nil, del, nil, nil, 0)
			if err != nil {
				return nil, fmt.Errorf("bench: ApplyDelta replay: %w", err)
			}
			r.applyDeltaBusy += time.Since(start)
			r.applyDeltaCalls++
			cs = next
		}
	}

	// wire: every frame the receiver endpoint saw in the window, decoded
	// and re-encoded by the codec the session used.
	if err := r.replayFrames(e, f, win); err != nil {
		return nil, err
	}

	if f.k1 != nil {
		out := f.k1(ctx)
		if out.err == nil {
			out.err = out.check()
		}
		if out.err != nil {
			return nil, fmt.Errorf("bench: unsharded comparison op: %w", out.err)
		}
		r.k1Wall = out.dur
	}

	// reldb: the two reads a served session's snapshot makes.
	if f.table != nil {
		const calls = 3
		start = time.Now()
		for i := 0; i < calls; i++ {
			if _, err := f.table.DistinctValues(f.col); err != nil {
				return nil, fmt.Errorf("bench: reldb replay: %w", err)
			}
		}
		r.distinctValues = time.Since(start) / calls
		start = time.Now()
		for i := 0; i < calls; i++ {
			if _, _, err := f.table.ExtPayloads(f.col); err != nil {
				return nil, fmt.Errorf("bench: reldb replay: %w", err)
			}
		}
		r.extPayloads = time.Since(start) / calls
	}
	return r, nil
}

func (r *replayed) replayFrames(e *env, f facts, win window) error {
	e.log.mu.Lock()
	var frames [][]byte
	for _, cf := range e.log.frames {
		if cf.at >= win.lo && cf.at <= win.hi {
			frames = append(frames, cf.data)
		}
	}
	e.log.mu.Unlock()

	codec := wire.NewCodec(f.backend)
	msgs := make([]wire.Message, len(frames))
	n0, _ := mallocs()
	start := time.Now()
	for i, fr := range frames {
		m, err := codec.Decode(fr)
		if err != nil {
			return fmt.Errorf("bench: wire replay: decoding captured frame %d: %w", i, err)
		}
		msgs[i] = m
	}
	r.decodeBusy = time.Since(start)
	n1, _ := mallocs()
	r.decodeAllocs = n1 - n0
	start = time.Now()
	for i, m := range msgs {
		if _, err := codec.Encode(m); err != nil {
			return fmt.Errorf("bench: wire replay: encoding captured frame %d: %w", i, err)
		}
	}
	r.encodeBusy = time.Since(start)

	r.frames = int64(len(frames))
	for i, m := range msgs {
		r.frameBytes += int64(len(frames[i]))
		r.elems += int64(elemCount(m))
		if k := m.Kind(); k == wire.KindHeader {
			r.headerBytes += int64(len(frames[i]))
		} else if k == wire.KindSubUpdate {
			r.subUpdates++
			r.subUpdateBytes += int64(len(frames[i]))
		}
	}
	return nil
}

// elemCount is the number of group-element codewords a message carries.
func elemCount(m wire.Message) int {
	switch v := m.(type) {
	case wire.Elements:
		return len(v.Elems)
	case wire.Pairs:
		return len(v.A) + len(v.B)
	case wire.Triples:
		return len(v.A) + len(v.B) + len(v.C)
	case wire.ExtPairs:
		return len(v.Elem)
	case wire.StreamChunk:
		return len(v.Elems)
	case wire.StreamExtChunk:
		return len(v.Elem)
	case wire.SubUpdate:
		return len(v.Upserts) + len(v.Deleted)
	case wire.Header, wire.ErrorMsg, wire.StreamBegin, wire.StreamEnd, wire.Subscribe, wire.SubAck, wire.SubEnd:
		return 0
	}
	return 0
}
