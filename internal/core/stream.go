package core

import (
	"context"
	"fmt"
	"math/big"
	"slices"
	"time"

	"minshare/internal/commutative"
	"minshare/internal/obs"
	"minshare/internal/wire"
)

// Bulk-vector I/O.
//
// Every bulk vector of the protocols is one of three wire shapes — bare
// elements, aligned element pairs, or ⟨element, ciphertext⟩ pairs — and
// crosses the wire in one of two encodings: a legacy one-shot frame
// (Config.ChunkSize = 0, the pre-streaming transcript byte for byte) or
// StreamBegin / chunk… / StreamEnd.  This file has one writer and one
// reader for all six combinations:
//
//   - vecWriter ships runs as they become available (streaming) or
//     buffers them into the one-shot frame (legacy);
//   - recvVec validates and hands out runs as they arrive, presenting a
//     legacy frame as a single run, so receivers accept whichever
//     encoding the peer chose and the two modes interoperate;
//   - recvPipelined hangs a worker off recvVec so run i is re-encrypted
//     (or stripped, or answered) while run i+1 is still in flight;
//   - duplex overlaps the two independent directions of an exchange.
//
// Nothing in the Section 3.3/4.3 protocols requires a party to finish a
// whole vector before its first elements move; these helpers are where
// that freedom is used.

// streaming reports whether this session sends bulk vectors chunked.
func (s *session) streaming() bool { return s.cfg.ChunkSize > 0 }

// vec is a run of a bulk vector in any of the three wire shapes: bare
// elements (a only), aligned pairs (a and b), or ⟨element, ciphertext⟩
// pairs (a and exts).
type vec struct {
	a, b []*big.Int
	exts [][]byte
}

func (v vec) len() int { return len(v.a) }

// slice returns entries [lo, hi) of every component.
func (v vec) slice(lo, hi int) vec {
	out := vec{a: v.a[lo:hi]}
	if v.b != nil {
		out.b = v.b[lo:hi]
	}
	if v.exts != nil {
		out.exts = v.exts[lo:hi]
	}
	return out
}

// append adds run c to v component-wise.  The first run appended to a
// zero vec is aliased, not copied — usually it is the whole vector —
// with its capacity clipped, so that a later append cannot write into a
// backing array the run shares with its producer (the encrypted-set
// cache, for one).
func (v *vec) append(c vec) {
	if v.a == nil {
		*v = vec{a: slices.Clip(c.a), b: slices.Clip(c.b), exts: slices.Clip(c.exts)}
		return
	}
	v.a = append(v.a, c.a...)
	v.b = append(v.b, c.b...)
	v.exts = append(v.exts, c.exts...)
}

// message encodes v as a vector of the given inner kind: the one-shot
// frame, or (chunk) one stream chunk, whose pair form interleaves the
// components a0 b0 a1 b1 ….
func (v vec) message(inner wire.Kind, chunk bool) wire.Message {
	switch {
	case inner == wire.KindExtPairs && chunk:
		return wire.StreamExtChunk{Elem: v.a, Ext: v.exts}
	case inner == wire.KindExtPairs:
		return wire.ExtPairs{Elem: v.a, Ext: v.exts}
	case inner == wire.KindPairs && chunk:
		inter := make([]*big.Int, 0, 2*len(v.a))
		for i := range v.a {
			inter = append(inter, v.a[i], v.b[i])
		}
		return wire.StreamChunk{Elems: inter}
	case inner == wire.KindPairs:
		return wire.Pairs{A: v.a, B: v.b}
	case chunk:
		return wire.StreamChunk{Elems: v.a}
	}
	return wire.Elements{Elems: v.a}
}

// runOf unpacks a one-shot vector frame or a stream chunk of the given
// inner kind.  m's kind has already been constrained by recvAny.
func runOf(m wire.Message, inner wire.Kind) (vec, error) {
	if v, ok := m.(wire.Elements); ok {
		return vec{a: v.Elems}, nil
	}
	if v, ok := m.(wire.Pairs); ok {
		return vec{a: v.A, b: v.B}, nil
	}
	if v, ok := m.(wire.ExtPairs); ok {
		return vec{a: v.Elem, exts: v.Ext}, nil
	}
	if v, ok := m.(wire.StreamExtChunk); ok {
		return vec{a: v.Elem, exts: v.Ext}, nil
	}
	elems := m.(wire.StreamChunk).Elems
	if inner != wire.KindPairs {
		return vec{a: elems}, nil
	}
	if len(elems)%2 != 0 {
		return vec{}, fmt.Errorf("%w: pair stream chunk of %d elements", ErrMalformedReply, len(elems))
	}
	out := vec{a: make([]*big.Int, len(elems)/2), b: make([]*big.Int, len(elems)/2)}
	for i := range out.a {
		out.a[i], out.b[i] = elems[2*i], elems[2*i+1]
	}
	return out, nil
}

// chunkTimer feeds the chunk/pipeline latency histogram: each tick
// records the time one run spent in its pipeline stage (exponentiate
// and ship, or validate and re-encrypt) since the previous tick.  A nil
// timer — uninstrumented session — is inert and costs no clock reads.
type chunkTimer struct {
	lat  *obs.Latencies
	last time.Time
}

func (s *session) newChunkTimer() *chunkTimer {
	if s.lat == nil {
		return nil
	}
	return &chunkTimer{lat: s.lat, last: time.Now()}
}

func (t *chunkTimer) tick() {
	if t == nil {
		return
	}
	now := time.Now()
	t.lat.Record(obs.LatChunkPipeline, now.Sub(t.last))
	t.last = now
}

// vecWriter ships one bulk vector run by run.  Streaming sessions put
// StreamBegin on the wire at once and each run as its own chunk; legacy
// sessions buffer the runs and end ships them as the one-shot frame.
type vecWriter struct {
	s      *session
	inner  wire.Kind
	buf    vec
	chunks uint32
}

// beginVec opens a vector of count entries of the given inner kind.
func (s *session) beginVec(ctx context.Context, inner wire.Kind, count int) (vecWriter, error) {
	w := vecWriter{s: s, inner: inner}
	if !s.streaming() {
		return w, nil
	}
	return w, s.send(ctx, wire.StreamBegin{Inner: inner, Count: uint32(count)})
}

func (w *vecWriter) write(ctx context.Context, run vec) error {
	if w.s.streaming() {
		w.chunks++
		return w.s.send(ctx, run.message(w.inner, true))
	}
	w.buf.append(run)
	return nil
}

func (w *vecWriter) end(ctx context.Context) error {
	if w.s.streaming() {
		return w.s.send(ctx, wire.StreamEnd{Chunks: w.chunks})
	}
	return w.s.send(ctx, w.buf.message(w.inner, false))
}

// sendVec ships a vector that is already fully computed: one legacy
// frame, or Begin + ⌈n/ChunkSize⌉ chunks + End when streaming.
func (s *session) sendVec(ctx context.Context, inner wire.Kind, v vec) error {
	w, err := s.beginVec(ctx, inner, v.len())
	if err != nil {
		return err
	}
	step := v.len()
	if s.streaming() {
		step = s.cfg.ChunkSize
	}
	for off := 0; off < v.len(); off += step {
		if err := w.write(ctx, v.slice(off, min(off+step, v.len()))); err != nil {
			return err
		}
	}
	return w.end(ctx)
}

// sendElems is sendVec for a bare element vector.
func (s *session) sendElems(ctx context.Context, elems []*big.Int) error {
	return s.sendVec(ctx, wire.KindElements, vec{a: elems})
}

// streamEncryptSend computes f_k(x) for every x of the received vector
// what and ships the results in input order.  Streaming mode pipelines:
// each chunk goes on the wire as soon as it is exponentiated, while the
// worker pool is already on the next one; legacy mode is the same loop
// over a single chunk.  The encryption is the vector's membership test.
func (s *session) streamEncryptSend(ctx context.Context, k *commutative.Key, xs []*big.Int, what string) error {
	sp := obs.StartSpan(ctx, "re-encrypt")
	defer sp.End()
	w, err := s.beginVec(ctx, wire.KindElements, len(xs))
	if err != nil {
		return err
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := commutative.EncryptStream(cctx, s.cfg.Scheme, k, xs, s.cfg.ChunkSize, s.cfg.Parallelism)
	ct := s.newChunkTimer()
	for c := range ch {
		if c.Err != nil {
			// An error chunk is terminal; the channel is already closed.
			return s.abort(ctx, notMember(c.Err, what))
		}
		if err := w.write(ctx, vec{a: c.Elems}); err != nil {
			cancel()
			for range ch {
			}
			return err
		}
		ct.tick()
	}
	return w.end(ctx)
}

// vecReserve bounds the entries recvVec reserves on the word of a
// StreamBegin, before any chunk exists (2 MiB at most, with the ext
// column); past it the vector grows with the runs that arrive.
const vecReserve = 1 << 16

// recvVec receives one bulk vector of the given inner kind in either
// encoding, presenting a legacy one-shot frame as a single run.  Each
// run is validated as it arrives — cardinality against wantLen (-1:
// any), when sorted, ascending order of the first component across run
// boundaries (footnote 3 of the paper: unsorted replies leak
// alignment), and, when members, group membership of every element
// (false for a vector the caller encrypts or decrypts in full: see
// checkChunk) — and then handed to onRun, when non-nil, with its offset
// in the vector before the next frame is read.  Validation failures
// abort the session (the peer gets a wire.ErrorMsg).  Returns the whole
// vector.
func (s *session) recvVec(ctx context.Context, inner wire.Kind, wantLen int, what string, sorted, members bool, onRun func(off int, run vec) error) (vec, error) {
	var all vec
	fail := func(err error) (vec, error) { return vec{}, s.abort(ctx, err) }
	// check validates the run that follows all and offers it to onRun.
	check := func(run vec) error {
		var prev *big.Int
		if n := all.len(); n > 0 {
			prev = all.a[n-1]
		}
		if err := s.checkChunk(ctx, run.a, prev, all.len(), what, sorted, members); err != nil {
			return s.abort(ctx, err)
		}
		if run.b != nil {
			if err := s.checkChunk(ctx, run.b, nil, all.len(), what+" (second component)", false, members); err != nil {
				return s.abort(ctx, err)
			}
		}
		if onRun != nil && run.len() > 0 {
			return onRun(all.len(), run)
		}
		return nil
	}

	m, err := s.recvAny(ctx, inner, wire.KindStreamBegin)
	if err != nil {
		return vec{}, err
	}
	begin, streamed := m.(wire.StreamBegin)
	if !streamed {
		run, err := runOf(m, inner)
		if err != nil {
			return fail(err)
		}
		if wantLen >= 0 && run.len() != wantLen {
			return fail(fmt.Errorf("%w: %s has %d elements, want %d", ErrMalformedReply, what, run.len(), wantLen))
		}
		if err := check(run); err != nil {
			return vec{}, err
		}
		return run, nil
	}

	count := int(begin.Count)
	if begin.Inner != inner {
		return fail(fmt.Errorf("%w: %s streamed as %v", ErrMalformedReply, what, begin.Inner))
	}
	if wantLen >= 0 && count != wantLen {
		return fail(fmt.Errorf("%w: %s has %d elements, want %d", ErrMalformedReply, what, count, wantLen))
	}
	reserve := min(count, vecReserve)
	all.a = make([]*big.Int, 0, reserve)
	chunkKind := wire.KindStreamChunk
	if inner == wire.KindExtPairs {
		chunkKind = wire.KindStreamExtChunk
		all.exts = make([][]byte, 0, reserve)
	}
	for chunks := uint32(0); ; chunks++ {
		m, err := s.recvAny(ctx, chunkKind, wire.KindStreamEnd)
		if err != nil {
			return vec{}, err
		}
		if end, ok := m.(wire.StreamEnd); ok {
			if end.Chunks != chunks || all.len() != count {
				return fail(fmt.Errorf("%w: %s stream ended after %d/%d elements", ErrMalformedReply, what, all.len(), count))
			}
			return all, nil
		}
		run, err := runOf(m, inner)
		if err != nil {
			return fail(err)
		}
		if run.len() == 0 {
			return fail(fmt.Errorf("%w: empty %s stream chunk", ErrMalformedReply, what))
		}
		if all.len()+run.len() > count {
			return fail(fmt.Errorf("%w: %s stream overflows its declared %d elements", ErrMalformedReply, what, count))
		}
		if err := check(run); err != nil {
			return vec{}, err
		}
		all.append(run)
	}
}

// recvElems receives and validates one bare element vector.
func (s *session) recvElems(ctx context.Context, wantLen int, what string, sorted, members bool) ([]*big.Int, error) {
	v, err := s.recvVec(ctx, wire.KindElements, wantLen, what, sorted, members, nil)
	return v.a, err
}

// recvPipelined is recvVec with a worker: work runs on each validated
// run, in order, on its own goroutine while the next run is still
// arriving.  work must put every element through encryptReceived or
// decryptReceived — that is the vector's membership test.  The first
// work error stops further work (later runs are drained unprocessed)
// and aborts the session once the receive has unwound; a receive error
// takes precedence.
func (s *session) recvPipelined(ctx context.Context, inner wire.Kind, wantLen int, what string, sorted bool, work func(off int, run vec) error) (vec, error) {
	type job struct {
		off int
		run vec
	}
	jobs := make(chan job, 1)
	done := make(chan struct{})
	var workErr error
	go func() {
		defer close(done)
		sp := obs.StartSpan(ctx, "re-encrypt")
		defer sp.End()
		ct := s.newChunkTimer()
		for j := range jobs {
			if workErr != nil {
				continue // drain
			}
			if workErr = work(j.off, j.run); workErr == nil {
				ct.tick()
			}
		}
	}()
	all, err := s.recvVec(ctx, inner, wantLen, what, sorted, false, func(off int, run vec) error {
		select {
		case jobs <- job{off, run}:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("core: chunk pipeline: %w", ctx.Err())
		}
	})
	close(jobs)
	<-done
	if err != nil {
		return vec{}, err
	}
	if workErr != nil {
		return vec{}, s.abort(ctx, workErr)
	}
	return all, nil
}

// recvReencrypt receives a sorted element vector and re-encrypts it
// under k, overlapping each run's exponentiation with the receipt of
// the next.  Returns the received vector and its re-encryption, both
// in wire order.
func (s *session) recvReencrypt(ctx context.Context, k *commutative.Key, wantLen int, what string) (received, reenc []*big.Int, err error) {
	var out vec
	got, err := s.recvPipelined(ctx, wire.KindElements, wantLen, what, true, func(off int, run vec) error {
		// off is the run's base offset, so element errors name the
		// global index.
		ys, err := s.encryptReceived(ctx, k, run.a, off, what)
		out.append(vec{a: ys})
		return err
	})
	return got.a, out.a, err
}

// recvEncryptPairsSend is the equijoin sender's step 3–4 pipeline: it
// receives Y_R (sorted) and replies with the aligned ⟨f_kA(y), f_kB(y)⟩
// pairs.  In streaming mode each received run is double-encrypted and
// its pair chunk sent while the next run of Y_R is still in flight, the
// reply mirroring the incoming run boundaries.
func (s *session) recvEncryptPairsSend(ctx context.Context, kA, kB *commutative.Key, wantLen int, what string) error {
	w, err := s.beginVec(ctx, wire.KindPairs, wantLen)
	if err != nil {
		return err
	}
	_, err = s.recvPipelined(ctx, wire.KindElements, wantLen, what, true, func(off int, run vec) error {
		withA, err := s.encryptReceived(ctx, kA, run.a, off, what)
		if err != nil {
			return err
		}
		withB, err := s.encryptReceived(ctx, kB, run.a, off, what)
		if err != nil {
			return err
		}
		return w.write(ctx, vec{a: withA, b: withB})
	})
	if err != nil {
		return err
	}
	return w.end(ctx)
}

// recvPairsDecrypt is the equijoin receiver's step 4+6 pipeline: it
// receives the aligned ⟨f_eS(y), f_e'S(y)⟩ pairs and strips R's own
// encryption layer from both components, run by run, overlapped with
// the receive.  Returns the two decrypted component vectors.
func (s *session) recvPairsDecrypt(ctx context.Context, k *commutative.Key, wantLen int, what string) (vec, error) {
	var out vec
	_, err := s.recvPipelined(ctx, wire.KindPairs, wantLen, what, false, func(off int, run vec) error {
		a, err := s.decryptReceived(ctx, k, run.a, off, what)
		if err != nil {
			return err
		}
		b, err := s.decryptReceived(ctx, k, run.b, off, what+" (second component)")
		if err != nil {
			return err
		}
		out.append(vec{a: a, b: b})
		return nil
	})
	return out, err
}

// duplex runs the send half and the receive half of an exchange phase.
// Legacy mode runs them sequentially in protocol order (recvFirst picks
// which goes first), reproducing the lock-step transcript.  Streaming
// mode runs both concurrently: the vectors are independent, each
// direction's frame order is unchanged, and the link's two directions
// overlap — hiding one whole vector transfer on a bandwidth-bound link.
// The send half gets a cancelable context so a receive failure (peer
// gone, pipe full) cannot strand it.
func (s *session) duplex(ctx context.Context, recvFirst bool, send, recv func(context.Context) error) error {
	if !s.streaming() {
		if recvFirst {
			if err := recv(ctx); err != nil {
				return err
			}
			return send(ctx)
		}
		if err := send(ctx); err != nil {
			return err
		}
		return recv(ctx)
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- send(sctx) }()
	rerr := recv(ctx)
	if rerr != nil {
		cancel()
	}
	serr := <-errc
	if rerr != nil {
		return rerr
	}
	return serr
}
