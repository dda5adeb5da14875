package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"strings"
	"testing"
	"time"

	"minshare/internal/group"
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

// members returns n sorted group elements.
func (m *maliciousPeer) members(n int) []*big.Int {
	return sortedCopy(m.cfg.Oracle.HashAll(vals("hostile-", n)))
}

func (m *maliciousPeer) header(n int) wire.Header {
	return wire.Header{
		Protocol:    wire.ProtoIntersection,
		GroupBits:   uint32(m.cfg.Group.Bits()),
		GroupDigest: wire.GroupDigest(m.cfg.Group),
		SetSize:     uint64(n),
		Backend:     m.cfg.Group.Code(),
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

// sendVec ships v as the honest code would: one frame, or — chunk > 0 —
// StreamBegin, chunks of that many entries and StreamEnd.
func (m *maliciousPeer) sendVec(ctx context.Context, t *testing.T, inner wire.Kind, v vec, chunk int) {
	t.Helper()
	if chunk <= 0 {
		m.send(ctx, t, v.message(inner, false))
		return
	}
	m.send(ctx, t, wire.StreamBegin{Inner: inner, Count: uint32(v.len())})
	chunks := uint32(0)
	for off := 0; off < v.len(); off += chunk {
		m.send(ctx, t, v.slice(off, min(off+chunk, v.len())).message(inner, true))
		chunks++
	}
	m.send(ctx, t, wire.StreamEnd{Chunks: chunks})
}

// recvVec reads one whole vector in either encoding and returns its
// first component (nil once the peer is gone).
func (m *maliciousPeer) recvVec(ctx context.Context, t *testing.T) []*big.Int {
	t.Helper()
	var elems []*big.Int
	for {
		switch v := m.recv(ctx, t).(type) {
		case wire.Elements:
			return v.Elems
		case wire.StreamBegin:
		case wire.StreamChunk:
			elems = append(elems, v.Elems...)
		case wire.StreamEnd:
			return elems
		default:
			return nil
		}
	}
}

// drain reads until the peer's ErrorMsg (or its hang-up) and returns
// how many group elements the frames before it carried, and the
// ErrorMsg text ("" if none came).
func (m *maliciousPeer) drain(ctx context.Context, t *testing.T) (carried int, errText string) {
	t.Helper()
	for {
		switch v := m.recv(ctx, t).(type) {
		case wire.Elements:
			carried += len(v.Elems)
		case wire.Pairs:
			carried += len(v.A) + len(v.B)
		case wire.ExtPairs:
			carried += len(v.Elem)
		case wire.StreamChunk:
			carried += len(v.Elems)
		case wire.StreamExtChunk:
			carried += len(v.Elem)
		case wire.StreamBegin, wire.StreamEnd:
		case wire.ErrorMsg:
			return carried, v.Text
		default:
			return carried, ""
		}
	}
}

// TestRejectsNonGroupElements plants one non-member in every bulk
// vector a party receives — every role of every protocol, over both
// backends, as a one-shot frame and as a stream, at the first and at
// the last position — and requires the same outcome whether the vector
// is tested on receipt (it is only matched) or by the encryption that
// consumes it: ErrMalformedReply naming the vector and the element's
// index in the whole vector, a wire.ErrorMsg saying the same to the
// peer, and no frame computed from the planted element on the wire.
func TestRejectsNonGroupElements(t *testing.T) {
	const n = 5 // both parties' set size
	vR, vS := overlapping(n, n, 2)
	recs := mkRecords(vS)
	elementProtos := []struct {
		name    string
		proto   wire.Protocol
		aligned bool
		recv    func(context.Context, Config, transport.Conn) error
		send    func(context.Context, Config, transport.Conn) error
	}{
		{"intersection", wire.ProtoIntersection, true,
			func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := IntersectionReceiver(ctx, cfg, conn, vR)
				return err
			},
			func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := IntersectionSender(ctx, cfg, conn, vS)
				return err
			}},
		{"intersection-size", wire.ProtoIntersectionSize, false,
			func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := IntersectionSizeReceiver(ctx, cfg, conn, vR)
				return err
			},
			func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := IntersectionSizeSender(ctx, cfg, conn, vS)
				return err
			}},
		{"equijoin-size", wire.ProtoEquijoinSize, false,
			func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := EquijoinSizeReceiver(ctx, cfg, conn, vR)
				return err
			},
			func(ctx context.Context, cfg Config, conn transport.Conn) error {
				_, err := EquijoinSizeSender(ctx, cfg, conn, vS)
				return err
			}},
	}
	joinRecv := func(ctx context.Context, cfg Config, conn transport.Conn) error {
		_, err := EquijoinReceiver(ctx, cfg, conn, vR)
		return err
	}
	joinSend := func(ctx context.Context, cfg Config, conn transport.Conn) error {
		_, err := EquijoinSender(ctx, cfg, conn, recs)
		return err
	}

	// A case is one received vector of one role.  hostile plays the peer
	// up to that vector, planting the non-member through plant; what is
	// the honest party's name for the vector; own is how many elements
	// of its own set the honest party ships regardless of what it
	// received, and perElem how many its reply carries per element of
	// the planted vector it got through before the planted one.
	type hostileCase struct {
		name         string
		proto        wire.Protocol
		honest       func(context.Context, Config, transport.Conn) error
		honestSends  bool // the honest party is S: the hostile peer opens the handshake
		hostile      func(ctx context.Context, t *testing.T, m *maliciousPeer, chunk int, plant func([]*big.Int) []*big.Int)
		what         string
		own, perElem int
	}
	var cases []hostileCase
	for _, p := range elementProtos {
		cases = append(cases,
			hostileCase{name: "R/" + p.name + "/Y_S", proto: p.proto, honest: p.recv, what: "Y_S",
				hostile: func(ctx context.Context, t *testing.T, m *maliciousPeer, chunk int, plant func([]*big.Int) []*big.Int) {
					m.sendVec(ctx, t, wire.KindElements, vec{a: plant(m.members(n))}, chunk)
				}},
			hostileCase{name: "R/" + p.name + "/reply", proto: p.proto, honest: p.recv, what: "f_eS(Y_R)",
				hostile: func(ctx context.Context, t *testing.T, m *maliciousPeer, chunk int, plant func([]*big.Int) []*big.Int) {
					m.sendVec(ctx, t, wire.KindElements, vec{a: m.members(n)}, chunk)
					m.sendVec(ctx, t, wire.KindElements, vec{a: plant(m.members(n))}, chunk)
				}},
		)
		perElem := 0
		if p.aligned {
			perElem = 1 // the aligned reply streams out run by run
		}
		cases = append(cases, hostileCase{name: "S/" + p.name + "/Y_R", proto: p.proto, honest: p.send, honestSends: true,
			what: "Y_R", own: n, perElem: perElem,
			hostile: func(ctx context.Context, t *testing.T, m *maliciousPeer, chunk int, plant func([]*big.Int) []*big.Int) {
				m.sendVec(ctx, t, wire.KindElements, vec{a: plant(m.members(n))}, chunk)
			}})
	}
	cases = append(cases,
		hostileCase{name: "R/equijoin/pairs-first", proto: wire.ProtoEquijoin, honest: joinRecv, what: "f_eS(Y_R):",
			hostile: func(ctx context.Context, t *testing.T, m *maliciousPeer, chunk int, plant func([]*big.Int) []*big.Int) {
				m.sendVec(ctx, t, wire.KindPairs, vec{a: plant(m.members(n)), b: m.members(n)}, chunk)
			}},
		hostileCase{name: "R/equijoin/pairs-second", proto: wire.ProtoEquijoin, honest: joinRecv, what: "f_eS(Y_R) (second component)",
			hostile: func(ctx context.Context, t *testing.T, m *maliciousPeer, chunk int, plant func([]*big.Int) []*big.Int) {
				m.sendVec(ctx, t, wire.KindPairs, vec{a: m.members(n), b: plant(m.members(n))}, chunk)
			}},
		hostileCase{name: "R/equijoin/ext-pairs", proto: wire.ProtoEquijoin, honest: joinRecv, what: "f_eS(h(V_S))",
			hostile: func(ctx context.Context, t *testing.T, m *maliciousPeer, chunk int, plant func([]*big.Int) []*big.Int) {
				m.sendVec(ctx, t, wire.KindPairs, vec{a: m.members(n), b: m.members(n)}, chunk)
				m.sendVec(ctx, t, wire.KindExtPairs, vec{a: plant(m.members(n)), exts: make([][]byte, n)}, chunk)
			}},
		hostileCase{name: "S/equijoin/Y_R", proto: wire.ProtoEquijoin, honest: joinSend, honestSends: true,
			what: "Y_R", perElem: 2,
			hostile: func(ctx context.Context, t *testing.T, m *maliciousPeer, chunk int, plant func([]*big.Int) []*big.Int) {
				m.sendVec(ctx, t, wire.KindElements, vec{a: plant(m.members(n))}, chunk)
			}},
	)

	backends := []struct {
		name string
		cfg  func(seed int64) Config
		// low and high are non-members below and above every member, so
		// planting them keeps a sorted vector sorted.
		low, high *big.Int
	}{
		{"qr", testConfig, big.NewInt(0), // 0 ∉ [1, p-1]; p-1 = -1 is a non-residue
			new(big.Int).Sub(group.TestGroup().P(), big.NewInt(1))},
		{"ec25519", ecConfig, big.NewInt(0), // y = 0 has order 4; 2^256-1 has y ≥ p
			new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))},
	}

	for _, be := range backends {
		for _, chunk := range []int{0, 2} {
			for _, c := range cases {
				for _, at := range []int{0, n - 1} {
					t.Run(fmt.Sprintf("%s/chunk%d/%s/at%d", be.name, chunk, c.name, at), func(t *testing.T) {
						ctx, cancel := context.WithCancel(context.Background())
						defer cancel()
						connH, connM := transport.Pipe()
						defer connH.Close()
						plant := func(elems []*big.Int) []*big.Int {
							elems[at] = be.low
							if at > 0 {
								elems[at] = be.high
							}
							return elems
						}

						var carried int
						var errText string
						done := make(chan struct{})
						go func() {
							defer close(done)
							mcfg := be.cfg(2)
							mcfg.ChunkSize = chunk
							m := newMalicious(mcfg, connM)
							hdr := m.header(n)
							hdr.Protocol = c.proto
							if c.honestSends {
								m.send(ctx, t, hdr)
								if m.recv(ctx, t) == nil {
									return
								}
							} else {
								if m.recv(ctx, t) == nil {
									return
								}
								m.send(ctx, t, hdr)
								if m.recvVec(ctx, t) == nil { // Y_R
									return
								}
							}
							c.hostile(ctx, t, m, chunk, plant)
							carried, errText = m.drain(ctx, t)
						}()

						hcfg := be.cfg(1)
						hcfg.ChunkSize = chunk
						err := c.honest(ctx, hcfg, connH)
						<-done
						if !errors.Is(err, ErrMalformedReply) {
							t.Fatalf("err = %v, want ErrMalformedReply", err)
						}
						for _, want := range []string{c.what, fmt.Sprintf("element %d", at)} {
							if !strings.Contains(err.Error(), want) {
								t.Errorf("err = %q does not name %q", err, want)
							}
						}
						if errText != err.Error() {
							t.Errorf("peer got ErrorMsg %q, want %q", errText, err)
						}
						if limit := c.own + c.perElem*at; carried > limit || (at == 0 && carried != c.own) {
							t.Errorf("honest party put %d elements on the wire after the planted vector, at most %d are clean", carried, limit)
						}
					})
				}
			}
		}
	}
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
