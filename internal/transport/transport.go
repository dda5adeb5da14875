// Package transport moves opaque frames between the two (or three)
// parties of a protocol session.
//
// The paper's Figure 1 separates the cryptographic protocol from the
// "secure communication" layer; this package is that layer.  It offers an
// in-memory pipe for in-process experiments and tests, a TCP transport
// with length-prefixed frames for real two-machine runs, a metering
// decorator that counts exact bytes (used to verify the Section 6.1
// communication formulas), a fault-injection decorator for failure
// testing, and an analytic link model (default: the paper's T1 line at
// 1.544 Mbit/s) that converts measured bytes into the paper's
// transfer-time estimates.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Common errors.
var (
	// ErrClosed reports use of a closed connection.
	ErrClosed = errors.New("transport: connection closed")
	// ErrFrameTooLarge reports a frame above MaxFrameLen.
	ErrFrameTooLarge = errors.New("transport: frame too large")
)

// MaxFrameLen bounds a single frame (1 GiB): large enough for a
// million-element vector of 2048-bit group elements, small enough to
// reject corrupted length prefixes before allocating.
const MaxFrameLen = 1 << 30

// recvAllocStep is what tcpConn.Recv allocates for a frame before any
// of its body has arrived (64 KiB); a frame up to this size costs one
// allocation, a larger one doubles the buffer each time it fills.
const recvAllocStep = 64 << 10

// FrameOverhead is the per-frame on-wire cost beyond the payload: the
// 4-byte big-endian length prefix the TCP transport writes.  The
// in-memory pipe carries no prefix, but meters and the cost model charge
// it uniformly so in-process measurements predict on-wire traffic.
const FrameOverhead = 4

// Conn is a bidirectional, ordered, reliable frame transport between two
// protocol parties.  Send and Recv honour context cancellation.  A Conn
// is safe for one concurrent sender and one concurrent receiver.
type Conn interface {
	// Send delivers one frame to the peer, blocking until it is handed
	// to the transport or ctx ends.
	Send(ctx context.Context, frame []byte) error
	// Recv returns the next frame from the peer in send order, blocking
	// until one arrives, the peer closes, or ctx ends.
	Recv(ctx context.Context) ([]byte, error)
	// Close releases the endpoint; the peer's pending and future Recvs
	// fail.  Close is idempotent.
	Close() error
}

// pipeConn is one endpoint of an in-memory pipe.
type pipeConn struct {
	out  chan<- []byte
	in   <-chan []byte
	done chan struct{}
	once *sync.Once // shared: closing either endpoint closes the pipe
}

// Pipe returns two connected in-memory endpoints.  Frames sent on one
// side are received on the other in order.  The buffer depth of 16 frames
// lets simple lockstep protocols run on a single goroutine pair without
// deadlock while still exercising backpressure.
func Pipe() (Conn, Conn) {
	ab := make(chan []byte, 16)
	ba := make(chan []byte, 16)
	done := make(chan struct{})
	once := &sync.Once{}
	a := &pipeConn{out: ab, in: ba, done: done, once: once}
	b := &pipeConn{out: ba, in: ab, done: done, once: once}
	return a, b
}

// Send implements Conn.
func (p *pipeConn) Send(ctx context.Context, frame []byte) error {
	// Copy so the caller may reuse its buffer.
	cp := append([]byte(nil), frame...)
	// Check for closure first: with buffer space free, the send case
	// below would otherwise race against the closed-pipe case.
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	select {
	case p.out <- cp:
		return nil
	case <-p.done:
		return ErrClosed
	case <-ctx.Done():
		return fmt.Errorf("transport: send: %w", ctx.Err())
	}
}

// Recv implements Conn.
func (p *pipeConn) Recv(ctx context.Context) ([]byte, error) {
	select {
	case f := <-p.in:
		return f, nil
	case <-p.done:
		// Drain anything already queued before reporting closure.
		select {
		case f := <-p.in:
			return f, nil
		default:
		}
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, fmt.Errorf("transport: recv: %w", ctx.Err())
	}
}

// Close implements Conn.  Closing either endpoint closes the whole pipe.
func (p *pipeConn) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

// tcpConn frames messages over a net.Conn as a 4-byte big-endian length
// followed by the payload.
type tcpConn struct {
	nc     net.Conn
	sendMu sync.Mutex
	recvMu sync.Mutex
	closed atomic.Bool
}

// watchCancel interrupts a blocked read or write when ctx is cancelled by
// moving the relevant I/O deadline into the past (the net-package idiom
// for unblocking a stuck syscall).  The returned stop function must be
// called once the operation completes; it blocks until the watcher
// goroutine has exited, so any deadline poke happens before stop
// returns — and therefore before the next operation re-arms its own
// deadline on entry.  (An async stop is NOT safe: when an operation
// completes without blocking — the data was already buffered — the
// watcher may not have run yet, and both its channels fire before it
// first parks.  A select entered with both cases ready picks one at
// random, so a stale watcher could poke the deadline into the past
// AFTER the next operation armed its deadline, killing that read or
// write with a spurious timeout.  The mux demux loop, which drains
// back-to-back buffered frames with no work in between, hits exactly
// this pattern.)
func watchCancel(ctx context.Context, setDeadline func(time.Time) error) (stop func()) {
	done := ctx.Done()
	if done == nil {
		return func() {}
	}
	finished := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-done:
			_ = setDeadline(time.Unix(1, 0)) // far past: unblock now
		case <-finished:
		}
	}()
	return func() {
		close(finished)
		<-exited
	}
}

// opErr folds a context failure into an I/O error: when the context was
// cancelled (or timed out) the poked deadline surfaces as a generic
// timeout from the net layer, so report the context's error instead.
// The I/O deadline and the context timer run on separate clocks, so a
// read can report its timeout a moment before ctx.Err() flips; when the
// context carries the deadline that just fired, still report
// context.DeadlineExceeded so callers classify the two cases the same.
func opErr(ctx context.Context, what string, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("transport: %s: %w", what, ctxErr)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
			return fmt.Errorf("transport: %s: %w", what, context.DeadlineExceeded)
		}
	}
	return fmt.Errorf("transport: %s: %w", what, err)
}

// NewTCP wraps an established net.Conn (TCP or unix socket) as a frame
// transport.
func NewTCP(nc net.Conn) Conn {
	return &tcpConn{nc: nc}
}

// Dial connects to a listening peer and returns the frame transport.
func Dial(ctx context.Context, network, addr string) (Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s %s: %w", network, addr, err)
	}
	return NewTCP(nc), nil
}

// Send implements Conn.
func (t *tcpConn) Send(ctx context.Context, frame []byte) error {
	if t.closed.Load() {
		return ErrClosed
	}
	if len(frame) > MaxFrameLen {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(frame))
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	dl, _ := ctx.Deadline() // zero time clears any previous deadline
	if err := t.nc.SetWriteDeadline(dl); err != nil {
		return fmt.Errorf("transport: set write deadline: %w", err)
	}
	stop := watchCancel(ctx, t.nc.SetWriteDeadline)
	defer stop()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := t.nc.Write(hdr[:]); err != nil {
		return opErr(ctx, "write frame header", err)
	}
	if _, err := t.nc.Write(frame); err != nil {
		return opErr(ctx, "write frame body", err)
	}
	return nil
}

// Recv implements Conn.
func (t *tcpConn) Recv(ctx context.Context) ([]byte, error) {
	if t.closed.Load() {
		return nil, ErrClosed
	}
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	dl, _ := ctx.Deadline() // zero time clears any previous deadline
	if err := t.nc.SetReadDeadline(dl); err != nil {
		return nil, fmt.Errorf("transport: set read deadline: %w", err)
	}
	stop := watchCancel(ctx, t.nc.SetReadDeadline)
	defer stop()
	var hdr [4]byte
	if _, err := io.ReadFull(t.nc, hdr[:]); err != nil {
		return nil, opErr(ctx, "read frame header", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameLen {
		return nil, fmt.Errorf("%w: declared %d bytes", ErrFrameTooLarge, n)
	}
	// The length prefix is the peer's word only: allocate a first step
	// and grow as bytes actually arrive, so a bogus prefix cannot make
	// this endpoint reserve memory the peer never sends.
	frame := make([]byte, min(int(n), recvAllocStep))
	for got := 0; ; {
		if _, err := io.ReadFull(t.nc, frame[got:]); err != nil {
			return nil, opErr(ctx, "read frame body", err)
		}
		if got = len(frame); got == int(n) {
			return frame, nil
		}
		grown := make([]byte, min(int(n), 2*got))
		copy(grown, frame)
		frame = grown
	}
}

// Close implements Conn.
func (t *tcpConn) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	return t.nc.Close()
}
