package bench

import (
	"context"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"minshare/internal/commutative"
	"minshare/internal/core"
	"minshare/internal/group"
	"minshare/internal/kenc"
	"minshare/internal/oracle"
	"minshare/internal/transport"
)

// Timing decorators for the traced run.  Each wraps one of the seams the
// program already exposes (group.Backend, commutative.Scheme,
// kenc.Cipher, transport.Conn) and must be transparent: same results,
// same bytes on the wire, same C_e census (decor_test.go holds them to
// that).  They record kinds, times and lengths only — never an element,
// scalar, key or payload.

// tracedBackend times the three costed backend operations.  via names
// the layer this instance was handed to.
type tracedBackend struct {
	group.Backend
	sc  scope
	via owner
}

func (b *tracedBackend) Apply(e *group.Scalar, x *big.Int) (*big.Int, error) {
	start := b.sc.tr.now()
	y, err := b.Backend.Apply(e, x)
	b.sc.leaf(kApply, b.via, start, 0, 0)
	return y, err
}

func (b *tracedBackend) Contains(x *big.Int) bool {
	start := b.sc.tr.now()
	ok := b.Backend.Contains(x)
	b.sc.leaf(kContains, b.via, start, 0, 0)
	return ok
}

func (b *tracedBackend) MapToElement(uniform []byte) *big.Int {
	start := b.sc.tr.now()
	x := b.Backend.MapToElement(uniform)
	b.sc.leaf(kMapToElement, b.via, start, 0, 0)
	return x
}

// tracedScheme times the commutative-encryption calls.  Its inner scheme
// runs over a tracedBackend of its own, so commutative self time is the
// scheme spans minus the group spans recorded via viaCommutative.
type tracedScheme struct {
	inner commutative.Scheme
	sc    scope
}

func (s *tracedScheme) Backend() group.Backend { return s.inner.Backend() }

func (s *tracedScheme) GenerateKey(r io.Reader) (*commutative.Key, error) {
	start := s.sc.tr.now()
	k, err := s.inner.GenerateKey(r)
	s.sc.leaf(kKeygen, viaCore, start, 0, 0)
	return k, err
}

func (s *tracedScheme) Encrypt(k *commutative.Key, x *big.Int) (*big.Int, error) {
	start := s.sc.tr.now()
	y, err := s.inner.Encrypt(k, x)
	s.sc.leaf(kEncrypt, viaCore, start, 0, 0)
	return y, err
}

func (s *tracedScheme) Decrypt(k *commutative.Key, y *big.Int) (*big.Int, error) {
	start := s.sc.tr.now()
	x, err := s.inner.Decrypt(k, y)
	s.sc.leaf(kDecrypt, viaCore, start, 0, 0)
	return x, err
}

// tracedCipher times the payload cipher K and records plaintext and
// ciphertext lengths.
type tracedCipher struct {
	kenc.Cipher
	sc scope
}

func (c *tracedCipher) Encrypt(kappa *big.Int, plaintext []byte) ([]byte, error) {
	start := c.sc.tr.now()
	ct, err := c.Cipher.Encrypt(kappa, plaintext)
	c.sc.leaf(kKencEncrypt, viaCore, start, int64(len(plaintext)), int64(len(ct)))
	return ct, err
}

func (c *tracedCipher) Decrypt(kappa *big.Int, ciphertext []byte) ([]byte, error) {
	start := c.sc.tr.now()
	pt, err := c.Cipher.Decrypt(kappa, ciphertext)
	c.sc.leaf(kKencDecrypt, viaCore, start, int64(len(pt)), int64(len(ciphertext)))
	return pt, err
}

// tracedConfig returns cfg with every crypto seam decorated under sc.
// cfg.Group must be set; Scheme, Oracle and Cipher are rebuilt exactly as
// core.Config's defaults build them, each over its own backend instance.
func tracedConfig(cfg core.Config, sc scope) core.Config {
	raw := cfg.Group
	cfg.Group = &tracedBackend{raw, sc, viaCore}
	cfg.Scheme = &tracedScheme{commutative.NewPowerFn(&tracedBackend{raw, sc, viaCommutative}), sc}
	cfg.Oracle = oracle.New(&tracedBackend{raw, sc, viaOracle})
	cfg.Cipher = &tracedCipher{kenc.NewHybrid(&tracedBackend{raw, sc, viaKenc}), sc}
	return cfg
}

// frameLog collects what the conn decorators of one traced world see:
// live frame counts (so the run can wait until nothing is in flight) and,
// from the endpoints asked to capture, copies of the codec-level frames
// for the wire replay.
type frameLog struct {
	sent, recvd atomic.Int64

	mu     sync.Mutex
	frames []capturedFrame
}

type capturedFrame struct {
	at   int64 // tracer time the frame passed the endpoint
	data []byte
}

func (l *frameLog) capture(at int64, data []byte) {
	cp := append([]byte(nil), data...)
	l.mu.Lock()
	l.frames = append(l.frames, capturedFrame{at, cp})
	l.mu.Unlock()
}

// Mux framing as transport.Mux puts it on the wire: after the outer
// handshake every frame starts with a shard tag, 0xFF marking a credit
// control frame.
const muxControlTag = 0xFF

// tracedConn times Send and Recv on one endpoint.  A Recv span's
// duration is the time blocked waiting on the peer or the link.  When
// muxed, frames after the first in each direction carry a shard tag; the
// span's bytes field holds the codec-level length (tag stripped, 0 for a
// control frame) and aux the raw length, so both the program's own
// census and the mux overhead can be read off the same spans.
type tracedConn struct {
	inner   transport.Conn
	sc      scope
	log     *frameLog
	capture bool
	muxed   bool

	nSent, nRecvd atomic.Int64
}

// codecView returns the codec-level payload of a raw frame: the frame
// itself, minus the shard tag once the mux is running, nil for a mux
// control frame.  nth is the frame's index in its direction.
func (c *tracedConn) codecView(frame []byte, nth int64) []byte {
	if !c.muxed || nth == 0 || len(frame) == 0 {
		return frame
	}
	if frame[0] == muxControlTag {
		return nil
	}
	return frame[1:]
}

func (c *tracedConn) Send(ctx context.Context, frame []byte) error {
	start := c.sc.tr.now()
	err := c.inner.Send(ctx, frame)
	if err != nil {
		return err
	}
	c.record(kSend, start, frame, c.nSent.Add(1)-1)
	c.log.sent.Add(1)
	return nil
}

func (c *tracedConn) Recv(ctx context.Context) ([]byte, error) {
	start := c.sc.tr.now()
	frame, err := c.inner.Recv(ctx)
	if err != nil {
		return nil, err
	}
	c.record(kRecv, start, frame, c.nRecvd.Add(1)-1)
	c.log.recvd.Add(1)
	return frame, nil
}

func (c *tracedConn) record(k kind, start int64, frame []byte, nth int64) {
	payload := c.codecView(frame, nth)
	c.sc.leaf(k, viaCore, start, int64(len(payload)), int64(len(frame)))
	if c.capture && payload != nil {
		c.log.capture(c.sc.tr.now(), payload)
	}
}

func (c *tracedConn) Close() error { return c.inner.Close() }
