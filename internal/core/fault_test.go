package core

import (
	"context"
	"errors"
	"math/big"
	"runtime"
	"testing"
	"time"

	"minshare/internal/transport"
	"minshare/internal/wire"
)

// TestFaultTransportFailures drives each protocol over transports that
// fail at every possible message index and asserts the run errors out
// rather than returning a (necessarily wrong) result.
func TestFaultTransportFailures(t *testing.T) {
	vR, vS := overlapping(4, 5, 2)
	recs := mkRecords(vS)

	protocols := map[string]struct {
		recv func(ctx context.Context, cfg Config, conn transport.Conn) error
		send func(ctx context.Context, cfg Config, conn transport.Conn) error
	}{
		"intersection": {
			recv: func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := IntersectionReceiver(ctx, cfg, conn, vR)
				return err
			},
			send: func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := IntersectionSender(ctx, cfg, conn, vS)
				return err
			},
		},
		"equijoin": {
			recv: func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := EquijoinReceiver(ctx, cfg, conn, vR)
				return err
			},
			send: func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := EquijoinSender(ctx, cfg, conn, recs)
				return err
			},
		},
		"intersection-size": {
			recv: func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := IntersectionSizeReceiver(ctx, cfg, conn, vR)
				return err
			},
			send: func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := IntersectionSizeSender(ctx, cfg, conn, vS)
				return err
			},
		},
		"equijoin-size": {
			recv: func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := EquijoinSizeReceiver(ctx, cfg, conn, vR)
				return err
			},
			send: func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := EquijoinSizeSender(ctx, cfg, conn, vS)
				return err
			},
		},
	}

	for name, p := range protocols {
		p := p
		for failAt := int64(1); failAt <= 3; failAt++ {
			failAt := failAt
			t.Run(name+"/recv-fails", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				connR, connS := transport.Pipe()
				defer connR.Close()
				fault := transport.NewFault(connR)
				fault.FailRecvAt = failAt

				ch := make(chan error, 1)
				go func() { ch <- p.send(ctx, testConfig(2), connS) }()
				rErr := p.recv(ctx, testConfig(1), fault)
				if rErr == nil {
					t.Fatalf("receiver succeeded despite recv fault at %d", failAt)
				}
				cancel() // release a possibly blocked sender
				<-ch
			})
		}
	}
}

// TestFaultCorruptedHeader corrupts the header frame R receives (the
// flipped byte lands in the group digest); the handshake must reject it.
func TestFaultCorruptedHeader(t *testing.T) {
	vR, vS := overlapping(4, 5, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	connR, connS := transport.Pipe()
	defer connR.Close()
	fault := transport.NewFault(connR)
	fault.CorruptRecvAt = 1

	ch := make(chan error, 1)
	go func() {
		_, err := IntersectionSender(ctx, testConfig(2), connS, vS)
		ch <- err
	}()
	_, rErr := IntersectionReceiver(ctx, testConfig(1), fault, vR)
	if rErr == nil {
		t.Fatal("receiver accepted corrupted header")
	}
	cancel()
	<-ch
}

// TestFaultCorruptedElementFrame flips a byte inside an element vector.
// A flipped group element is just a different group element, so this is
// fundamentally undetectable at the protocol layer (Figure 1 delegates
// integrity to the secure-communication layer); what the protocol MUST
// guarantee is a clean completion — a valid result or a clean error,
// never a panic.
func TestFaultCorruptedElementFrame(t *testing.T) {
	vR, vS := overlapping(4, 5, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	connR, connS := transport.Pipe()
	defer connR.Close()
	fault := transport.NewFault(connR)
	fault.CorruptRecvAt = 2 // Y_S

	ch := make(chan error, 1)
	go func() {
		_, err := IntersectionSender(ctx, testConfig(2), connS, vS)
		ch <- err
	}()
	res, rErr := IntersectionReceiver(ctx, testConfig(1), fault, vR)
	if rErr == nil && len(res.Values) > 2 {
		t.Errorf("corruption invented intersection values: %d", len(res.Values))
	}
	cancel()
	<-ch
}

// TestFaultTruncatedFrame truncates a frame; decoding must fail cleanly.
func TestFaultTruncatedFrame(t *testing.T) {
	vR, vS := overlapping(4, 5, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	connR, connS := transport.Pipe()
	defer connR.Close()
	fault := transport.NewFault(connR)
	fault.TruncateRecvAt = 2

	ch := make(chan error, 1)
	go func() {
		_, err := IntersectionSender(ctx, testConfig(2), connS, vS)
		ch <- err
	}()
	_, rErr := IntersectionReceiver(ctx, testConfig(1), fault, vR)
	if !errors.Is(rErr, ErrMalformedReply) {
		t.Fatalf("err = %v, want ErrMalformedReply", rErr)
	}
	cancel()
	<-ch
}

// maliciousPeer drives the raw wire protocol by hand to deliver
// rule-breaking replies.
type maliciousPeer struct {
	cfg   Config
	conn  transport.Conn
	codec *wire.Codec
}

func newMalicious(cfg Config, conn transport.Conn) *maliciousPeer {
	cfg = cfg.normalized()
	return &maliciousPeer{cfg: cfg, conn: conn, codec: wire.NewCodec(cfg.Group)}
}

func (m *maliciousPeer) send(ctx context.Context, t *testing.T, msg wire.Message) {
	t.Helper()
	data, err := m.codec.Encode(msg)
	if err != nil {
		t.Errorf("malicious encode: %v", err)
		return
	}
	if err := m.conn.Send(ctx, data); err != nil {
		t.Logf("malicious send: %v", err) // receiver may already have hung up
	}
}

func (m *maliciousPeer) recv(ctx context.Context, t *testing.T) wire.Message {
	t.Helper()
	data, err := m.conn.Recv(ctx)
	if err != nil {
		t.Logf("malicious recv: %v", err)
		return nil
	}
	msg, err := m.codec.Decode(data)
	if err != nil {
		t.Errorf("malicious decode: %v", err)
		return nil
	}
	return msg
}

func (m *maliciousPeer) header(n int) wire.Header {
	return wire.Header{
		Protocol:    wire.ProtoIntersection,
		GroupBits:   uint32(m.cfg.Group.Bits()),
		GroupDigest: wire.GroupDigest(m.cfg.Group),
		SetSize:     uint64(n),
	}
}

// TestRejectsUnsortedReply: a sender that ships an unsorted Y_S violates
// the protocol (footnote 3); the receiver must reject it.
func TestRejectsUnsortedReply(t *testing.T) {
	vR := vals("r", 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	connR, connS := transport.Pipe()
	defer connR.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		m := newMalicious(testConfig(2), connS)
		if m.recv(ctx, t) == nil { // R's header
			return
		}
		m.send(ctx, t, m.header(2))
		if m.recv(ctx, t) == nil { // Y_R
			return
		}
		// Build two valid group elements in DESCENDING order.
		a := m.cfg.Oracle.HashString("zzz")
		b := m.cfg.Oracle.HashString("aaa")
		hi, lo := a, b
		if hi.Cmp(lo) < 0 {
			hi, lo = lo, hi
		}
		m.send(ctx, t, wire.Elements{Elems: []*big.Int{hi, lo}})
	}()

	_, err := IntersectionReceiver(ctx, testConfig(1), connR, vR)
	if !errors.Is(err, ErrMalformedReply) {
		t.Fatalf("err = %v, want ErrMalformedReply (unsorted)", err)
	}
	cancel()
	<-done
}

// TestRejectsNonGroupElements: replies containing non-residues must be
// rejected before any use.
func TestRejectsNonGroupElements(t *testing.T) {
	vR := vals("r", 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	connR, connS := transport.Pipe()
	defer connR.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		m := newMalicious(testConfig(2), connS)
		if m.recv(ctx, t) == nil {
			return
		}
		m.send(ctx, t, m.header(1))
		if m.recv(ctx, t) == nil {
			return
		}
		m.send(ctx, t, wire.Elements{Elems: []*big.Int{big.NewInt(0)}})
	}()

	_, err := IntersectionReceiver(ctx, testConfig(1), connR, vR)
	if !errors.Is(err, ErrMalformedReply) {
		t.Fatalf("err = %v, want ErrMalformedReply (non-member)", err)
	}
	cancel()
	<-done
}

// TestRejectsCardinalityMismatch: a sender announcing |V_S|=5 but sending
// 3 elements must be caught.
func TestRejectsCardinalityMismatch(t *testing.T) {
	vR := vals("r", 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	connR, connS := transport.Pipe()
	defer connR.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		m := newMalicious(testConfig(2), connS)
		if m.recv(ctx, t) == nil {
			return
		}
		m.send(ctx, t, m.header(5)) // lies: announces 5
		if m.recv(ctx, t) == nil {
			return
		}
		elems := []*big.Int{m.cfg.Oracle.HashString("a")}
		m.send(ctx, t, wire.Elements{Elems: sortedCopy(elems)})
	}()

	_, err := IntersectionReceiver(ctx, testConfig(1), connR, vR)
	if !errors.Is(err, ErrMalformedReply) {
		t.Fatalf("err = %v, want ErrMalformedReply (cardinality)", err)
	}
	cancel()
	<-done
}

// TestPeerErrorMessageSurfaces: an explicit ErrorMsg from the peer must
// surface as ErrPeerFailure.
func TestPeerErrorMessageSurfaces(t *testing.T) {
	vR := vals("r", 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	connR, connS := transport.Pipe()
	defer connR.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		m := newMalicious(testConfig(2), connS)
		if m.recv(ctx, t) == nil {
			return
		}
		m.send(ctx, t, wire.ErrorMsg{Text: "sender exploded"})
	}()

	_, err := IntersectionReceiver(ctx, testConfig(1), connR, vR)
	if !errors.Is(err, ErrPeerFailure) {
		t.Fatalf("err = %v, want ErrPeerFailure", err)
	}
	cancel()
	<-done
}

// TestContextCancellationMidProtocol: cancelling the context while the
// peer is silent aborts the run.
func TestContextCancellationMidProtocol(t *testing.T) {
	vR := vals("r", 2)
	ctx, cancel := context.WithCancel(context.Background())
	connR, _ := transport.Pipe() // no peer will ever answer
	defer connR.Close()
	cancel()
	if _, err := IntersectionReceiver(ctx, testConfig(1), connR, vR); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}

// TestReceiverAbortsOnStalledSender: a receiver talking through the idle
// -timeout decorator abandons a sender that answers the handshake and
// then goes silent — within one idle interval, without leaking the run's
// goroutines or waiting on the whole-session context.
func TestReceiverAbortsOnStalledSender(t *testing.T) {
	vR := vals("r", 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	connR, connS := transport.Pipe()
	defer connR.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		m := newMalicious(testConfig(2), connS)
		if m.recv(ctx, t) == nil { // R's header
			return
		}
		m.send(ctx, t, m.header(4))
		// ... and stall: never send Y_S.
	}()

	start := time.Now()
	_, err := IntersectionReceiver(ctx, testConfig(1), transport.WithIdleTimeout(connR, 100*time.Millisecond), vR)
	if !errors.Is(err, transport.ErrIdleTimeout) {
		t.Fatalf("err = %v, want ErrIdleTimeout", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("receiver took %v to abandon the stalled sender", d)
	}
	cancel()
	<-done
}

// TestRecvVecAllocationFollowsArrivedChunks: a peer that announces
// 2^24 values, opens the stream with a 6-byte StreamBegin repeating
// that count and hangs up must cost the receiver the capped
// reservation, not 8 (or, with the ext column, 32) bytes per announced
// entry — 128 and 512 MiB.
func TestRecvVecAllocationFollowsArrivedChunks(t *testing.T) {
	const declared = 1 << 24
	cases := []struct {
		name  string
		proto wire.Protocol
		inner wire.Kind
		recv  func(ctx context.Context, conn transport.Conn, vR [][]byte) error
	}{
		{"elements", wire.ProtoIntersection, wire.KindElements,
			func(ctx context.Context, conn transport.Conn, vR [][]byte) error {
				_, err := IntersectionReceiver(ctx, testConfig(1), conn, vR)
				return err
			}},
		{"ext-pairs", wire.ProtoEquijoin, wire.KindExtPairs,
			func(ctx context.Context, conn transport.Conn, vR [][]byte) error {
				_, err := EquijoinReceiver(ctx, testConfig(1), conn, vR)
				return err
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vR := vals("r", 3)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			connR, connS := transport.Pipe()
			defer connR.Close()

			done := make(chan struct{})
			go func() {
				defer close(done)
				m := newMalicious(testConfig(2), connS)
				if m.recv(ctx, t) == nil { // R's header
					return
				}
				hdr := m.header(declared)
				hdr.Protocol = tc.proto
				m.send(ctx, t, hdr)
				yR, ok := m.recv(ctx, t).(wire.Elements)
				if !ok {
					return
				}
				if tc.inner == wire.KindExtPairs {
					// The equijoin receiver reads the reply about Y_R
					// (sized by its own set) before S's vector.
					m.send(ctx, t, wire.Pairs{A: yR.Elems, B: yR.Elems})
				}
				m.send(ctx, t, wire.StreamBegin{Inner: tc.inner, Count: declared})
				connS.Close()
			}()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.recv(ctx, connR, vR)
			runtime.ReadMemStats(&after)
			<-done
			if !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("err = %v, want transport.ErrClosed", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
				t.Errorf("a StreamBegin declaring %d entries made the receiver allocate %d bytes", declared, grew)
			}
		})
	}
}
