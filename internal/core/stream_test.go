package core

import (
	"bytes"
	"context"
	"errors"
	"math/big"
	"runtime"
	"sync"
	"testing"
	"time"

	"minshare/internal/commutative"
	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// testConfigChunked is testConfig with streaming enabled.
func testConfigChunked(seed int64, chunk int) Config {
	cfg := testConfig(seed)
	cfg.ChunkSize = chunk
	return cfg
}

// joinRecords builds an equijoin record set with a deterministic ext per
// value.
func joinRecords(vS [][]byte) []JoinRecord {
	records := make([]JoinRecord, len(vS))
	for i, v := range vS {
		records[i] = JoinRecord{Value: v, Ext: append([]byte("ext:"), v...)}
	}
	return records
}

// TestStreamedProtocolsMatchLegacy runs every protocol with both parties
// streaming at several chunk sizes — including chunk 1 (maximal framing)
// and a chunk larger than any vector (single-chunk streams) — and checks
// the results against a legacy (ChunkSize = 0) run on the same inputs.
func TestStreamedProtocolsMatchLegacy(t *testing.T) {
	const nR, nS, shared = 7, 5, 3
	vR, vS := overlapping(nR, nS, shared)

	legacyInter, _ := runPair(t,
		func(ctx context.Context, conn transport.Conn) (*IntersectionResult, error) {
			return IntersectionReceiver(ctx, testConfig(1), conn, vR)
		},
		func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
			return IntersectionSender(ctx, testConfig(2), conn, vS)
		})

	for _, chunk := range []int{1, 3, 64} {
		cfgR := testConfigChunked(1, chunk)
		cfgS := testConfigChunked(2, chunk)

		res, info := runPair(t,
			func(ctx context.Context, conn transport.Conn) (*IntersectionResult, error) {
				return IntersectionReceiver(ctx, cfgR, conn, vR)
			},
			func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
				return IntersectionSender(ctx, cfgS, conn, vS)
			})
		gotVals := sortedStrings(res.Values)
		wantVals := sortedStrings(legacyInter.Values)
		if len(gotVals) != len(wantVals) {
			t.Fatalf("chunk %d: intersection size %d, want %d", chunk, len(gotVals), len(wantVals))
		}
		for i := range gotVals {
			if gotVals[i] != wantVals[i] {
				t.Errorf("chunk %d: intersection[%d] = %q, want %q", chunk, i, gotVals[i], wantVals[i])
			}
		}
		if res.SenderSetSize != nS || info.ReceiverSetSize != nR {
			t.Errorf("chunk %d: sizes %d/%d, want %d/%d", chunk, res.SenderSetSize, info.ReceiverSetSize, nS, nR)
		}

		size, _ := runPair(t,
			func(ctx context.Context, conn transport.Conn) (*SizeResult, error) {
				return IntersectionSizeReceiver(ctx, cfgR, conn, vR)
			},
			func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
				return IntersectionSizeSender(ctx, cfgS, conn, vS)
			})
		if size.IntersectionSize != shared {
			t.Errorf("chunk %d: intersection size = %d, want %d", chunk, size.IntersectionSize, shared)
		}

		mR := [][]byte{[]byte("a"), []byte("a"), []byte("b"), []byte("c"), []byte("c")}
		mS := [][]byte{[]byte("a"), []byte("c"), []byte("c"), []byte("d")}
		js, _ := runPair(t,
			func(ctx context.Context, conn transport.Conn) (*JoinSizeResult, error) {
				return EquijoinSizeReceiver(ctx, cfgR, conn, mR)
			},
			func(ctx context.Context, conn transport.Conn) (*JoinSizeSenderInfo, error) {
				return EquijoinSizeSender(ctx, cfgS, conn, mS)
			})
		if js.JoinSize != 2*1+2*2 { // a: 2·1, c: 2·2
			t.Errorf("chunk %d: join size = %d, want 6", chunk, js.JoinSize)
		}

		join, _ := runPair(t,
			func(ctx context.Context, conn transport.Conn) (*JoinResult, error) {
				return EquijoinReceiver(ctx, cfgR, conn, vR)
			},
			func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
				return EquijoinSender(ctx, cfgS, conn, joinRecords(vS))
			})
		if len(join.Matches) != shared {
			t.Fatalf("chunk %d: equijoin matches = %d, want %d", chunk, len(join.Matches), shared)
		}
		for _, m := range join.Matches {
			if want := append([]byte("ext:"), m.Value...); !bytes.Equal(m.Ext, want) {
				t.Errorf("chunk %d: ext for %q = %q, want %q", chunk, m.Value, m.Ext, want)
			}
		}
	}
}

// TestStreamedMixedModes pairs a streaming session with a legacy one in
// both orientations: the receive helpers accept whatever encoding the
// peer chose, so differently configured endpoints must interoperate.
func TestStreamedMixedModes(t *testing.T) {
	const nR, nS, shared = 7, 5, 3
	vR, vS := overlapping(nR, nS, shared)

	cases := []struct {
		name       string
		cfgR, cfgS Config
	}{
		{"chunked-R-legacy-S", testConfigChunked(1, 3), testConfig(2)},
		{"legacy-R-chunked-S", testConfig(1), testConfigChunked(2, 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, _ := runPair(t,
				func(ctx context.Context, conn transport.Conn) (*IntersectionResult, error) {
					return IntersectionReceiver(ctx, tc.cfgR, conn, vR)
				},
				func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
					return IntersectionSender(ctx, tc.cfgS, conn, vS)
				})
			if len(res.Values) != shared {
				t.Errorf("intersection = %d values, want %d", len(res.Values), shared)
			}
			join, _ := runPair(t,
				func(ctx context.Context, conn transport.Conn) (*JoinResult, error) {
					return EquijoinReceiver(ctx, tc.cfgR, conn, vR)
				},
				func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
					return EquijoinSender(ctx, tc.cfgS, conn, joinRecords(vS))
				})
			if len(join.Matches) != shared {
				t.Errorf("equijoin = %d matches, want %d", len(join.Matches), shared)
			}
		})
	}
}

// TestStreamedEmptyVector streams a zero-element vector: Begin and End
// with no chunks in between.
func TestStreamedEmptyVector(t *testing.T) {
	vS := vals("s", 4)
	res, info := runPair(t,
		func(ctx context.Context, conn transport.Conn) (*IntersectionResult, error) {
			return IntersectionReceiver(ctx, testConfigChunked(1, 3), conn, nil)
		},
		func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
			return IntersectionSender(ctx, testConfigChunked(2, 3), conn, vS)
		})
	if len(res.Values) != 0 || res.SenderSetSize != 4 || info.ReceiverSetSize != 0 {
		t.Errorf("empty-set run: %d values, sizes %d/%d", len(res.Values), res.SenderSetSize, info.ReceiverSetSize)
	}
}

// recordConn captures every frame an endpoint sends, for transcript
// inspection.
type recordConn struct {
	transport.Conn
	mu   sync.Mutex
	sent [][]byte
}

func (r *recordConn) Send(ctx context.Context, frame []byte) error {
	r.mu.Lock()
	r.sent = append(r.sent, append([]byte(nil), frame...))
	r.mu.Unlock()
	return r.Conn.Send(ctx, frame)
}

func (r *recordConn) frames() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]byte(nil), r.sent...)
}

// TestLegacyTranscriptByteForByte pins the ChunkSize = 0 wire format to
// the pre-streaming transcript: every frame both endpoints emit must be
// a legacy kind (no stream framing anywhere), and — the codec being
// deterministic — re-encoding each decoded frame must reproduce its
// bytes exactly.
func TestLegacyTranscriptByteForByte(t *testing.T) {
	const nR, nS, shared = 7, 5, 3
	vR, vS := overlapping(nR, nS, shared)
	legacyKinds := map[wire.Kind]bool{
		wire.KindHeader: true, wire.KindElements: true,
		wire.KindPairs: true, wire.KindExtPairs: true,
	}
	checkTranscript := func(t *testing.T, who string, rec *recordConn, wantKinds []wire.Kind) {
		t.Helper()
		codec := wire.NewCodec(testConfig(1).normalized().Group)
		frames := rec.frames()
		if len(frames) != len(wantKinds) {
			t.Fatalf("%s sent %d frames, want %d", who, len(frames), len(wantKinds))
		}
		for i, frame := range frames {
			m, err := codec.Decode(frame)
			if err != nil {
				t.Fatalf("%s frame %d: %v", who, i, err)
			}
			if !legacyKinds[m.Kind()] {
				t.Errorf("%s frame %d is %v: stream framing leaked into a legacy transcript", who, i, m.Kind())
			}
			if m.Kind() != wantKinds[i] {
				t.Errorf("%s frame %d = %v, want %v", who, i, m.Kind(), wantKinds[i])
			}
			re, err := codec.Encode(m)
			if err != nil {
				t.Fatalf("%s frame %d re-encode: %v", who, i, err)
			}
			if !bytes.Equal(re, frame) {
				t.Errorf("%s frame %d: re-encoding differs from the wire bytes", who, i)
			}
		}
	}

	run := func(t *testing.T, recvFn func(context.Context, transport.Conn) error, sendFn func(context.Context, transport.Conn) error) (recR, recS *recordConn) {
		t.Helper()
		ctx := context.Background()
		connR, connS := transport.Pipe()
		defer connR.Close()
		recR, recS = &recordConn{Conn: connR}, &recordConn{Conn: connS}
		ch := make(chan error, 1)
		go func() { ch <- sendFn(ctx, recS) }()
		if err := recvFn(ctx, recR); err != nil {
			t.Fatalf("receiver: %v", err)
		}
		if err := <-ch; err != nil {
			t.Fatalf("sender: %v", err)
		}
		return recR, recS
	}

	t.Run("intersection", func(t *testing.T) {
		recR, recS := run(t,
			func(ctx context.Context, conn transport.Conn) error {
				_, err := IntersectionReceiver(ctx, testConfig(1), conn, vR)
				return err
			},
			func(ctx context.Context, conn transport.Conn) error {
				_, err := IntersectionSender(ctx, testConfig(2), conn, vS)
				return err
			})
		checkTranscript(t, "R", recR, []wire.Kind{wire.KindHeader, wire.KindElements})
		checkTranscript(t, "S", recS, []wire.Kind{wire.KindHeader, wire.KindElements, wire.KindElements})
	})
	t.Run("equijoin", func(t *testing.T) {
		recR, recS := run(t,
			func(ctx context.Context, conn transport.Conn) error {
				_, err := EquijoinReceiver(ctx, testConfig(1), conn, vR)
				return err
			},
			func(ctx context.Context, conn transport.Conn) error {
				_, err := EquijoinSender(ctx, testConfig(2), conn, joinRecords(vS))
				return err
			})
		checkTranscript(t, "R", recR, []wire.Kind{wire.KindHeader, wire.KindElements})
		checkTranscript(t, "S", recS, []wire.Kind{wire.KindHeader, wire.KindPairs, wire.KindExtPairs})
	})
}

// TestLegacyInteropScriptedSender drives an un-migrated sender by hand —
// raw codec, one legacy Elements frame per vector, no knowledge of
// stream kinds — against a ChunkSize = 0 receiver.  The receiver's own
// Y_R must arrive as a single legacy frame, and the run must produce the
// correct intersection.
func TestLegacyInteropScriptedSender(t *testing.T) {
	const nR, nS, shared = 5, 4, 2
	vR, vS := overlapping(nR, nS, shared)
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
		m.send(ctx, t, m.header(len(vS)))
		msg := m.recv(ctx, t)
		el, ok := msg.(wire.Elements)
		if !ok {
			t.Errorf("legacy peer got %T for Y_R, want one wire.Elements frame", msg)
			return
		}
		if len(el.Elems) != nR {
			t.Errorf("legacy peer got %d elements, want %d", len(el.Elems), nR)
			return
		}
		key, err := m.cfg.Scheme.GenerateKey(m.cfg.Rand)
		if err != nil {
			t.Errorf("legacy peer keygen: %v", err)
			return
		}
		xs := m.cfg.Oracle.HashAll(vS)
		yS, err := commutative.EncryptAll(ctx, m.cfg.Scheme, key, xs, 1)
		if err != nil {
			t.Errorf("legacy peer encrypt: %v", err)
			return
		}
		m.send(ctx, t, wire.Elements{Elems: sortedCopy(yS)})
		z, err := commutative.EncryptAll(ctx, m.cfg.Scheme, key, el.Elems, 1)
		if err != nil {
			t.Errorf("legacy peer re-encrypt: %v", err)
			return
		}
		m.send(ctx, t, wire.Elements{Elems: z})
	}()

	res, err := IntersectionReceiver(ctx, testConfig(1), connR, vR)
	if err != nil {
		t.Fatalf("receiver against legacy peer: %v", err)
	}
	<-done
	want := plaintextIntersection(vR, vS)
	if len(res.Values) != len(want) {
		t.Fatalf("intersection = %d values, want %d", len(res.Values), len(want))
	}
	for _, v := range res.Values {
		if !want[string(v)] {
			t.Errorf("unexpected intersection value %q", v)
		}
	}
}

// waitGoroutines waits for the goroutine count to drop back to base,
// failing the test if it does not settle.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want <= %d: pipeline leak", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamFaultMidStreamAbort corrupts R's StreamEnd as seen by S
// (frame 7 on S's conn: header, Begin, ⌈7/2⌉ = 4 chunks, End).  S must
// reject the stream and abort, R must observe the wire.ErrorMsg as
// ErrPeerFailure, and no pipeline goroutine may leak.
func TestStreamFaultMidStreamAbort(t *testing.T) {
	base := runtime.NumGoroutine()
	const nR, nS, shared = 7, 5, 3
	vR, vS := overlapping(nR, nS, shared)

	rErr, sErr := runPairExpectErr(
		func(ctx context.Context, conn transport.Conn) (*IntersectionResult, error) {
			return IntersectionReceiver(ctx, testConfigChunked(1, 2), conn, vR)
		},
		func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
			fault := transport.NewFault(conn)
			fault.CorruptRecvAt = 7
			return IntersectionSender(ctx, testConfigChunked(2, 2), fault, vS)
		})
	if !errors.Is(sErr, ErrMalformedReply) {
		t.Errorf("sender err = %v, want ErrMalformedReply", sErr)
	}
	if !errors.Is(rErr, ErrPeerFailure) {
		t.Errorf("receiver err = %v, want ErrPeerFailure", rErr)
	}
	waitGoroutines(t, base)
}

// TestStreamFaultSendFailure fails a mid-stream reply send on S's side
// (frame 9: header, 5 Y_S frames, reply Begin, chunk, failing chunk),
// exercising streamEncryptSend's cancel-and-drain path.
func TestStreamFaultSendFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	const nR, nS, shared = 7, 5, 3
	vR, vS := overlapping(nR, nS, shared)

	rErr, sErr := runPairExpectErr(
		func(ctx context.Context, conn transport.Conn) (*IntersectionResult, error) {
			return IntersectionReceiver(ctx, testConfigChunked(1, 2), conn, vR)
		},
		func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
			fault := transport.NewFault(conn)
			fault.FailSendAt = 9
			return IntersectionSender(ctx, testConfigChunked(2, 2), fault, vS)
		})
	if !errors.Is(sErr, transport.ErrInjected) {
		t.Errorf("sender err = %v, want ErrInjected", sErr)
	}
	if rErr == nil {
		t.Error("receiver completed despite the sender dying mid-stream")
	}
	waitGoroutines(t, base)
}

// TestStreamFaultCountersOnlyDeliveredChunks corrupts the Y_S StreamEnd
// as R sees it (frame 6: header, Begin, ⌈5/2⌉ = 3 chunks, End) and
// checks that R's observed frame counters reflect only the frames
// actually delivered before the abort — not the full exchange.
func TestStreamFaultCountersOnlyDeliveredChunks(t *testing.T) {
	base := runtime.NumGoroutine()
	const nR, nS, shared = 7, 5, 3
	const failAt = 6
	vR, vS := overlapping(nR, nS, shared)
	reg := obs.NewRegistry()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	connR, connS := transport.Pipe()
	sessR := reg.StartSession(obs.SessionInfo{Protocol: "intersection", Role: "receiver"})

	ch := make(chan error, 1)
	go func() {
		_, err := IntersectionSender(ctx, testConfigChunked(2, 2), connS, vS)
		if err != nil {
			connS.Close()
		}
		ch <- err
	}()
	fault := transport.NewFault(connR)
	fault.CorruptRecvAt = failAt
	_, rErr := IntersectionReceiver(obs.WithSession(ctx, sessR), testConfigChunked(1, 2), fault, vR)
	snap := sessR.End(rErr)
	connR.Close()
	<-ch

	if !errors.Is(rErr, ErrMalformedReply) {
		t.Fatalf("receiver err = %v, want ErrMalformedReply", rErr)
	}
	if snap.Counters.FramesRecv != failAt {
		t.Errorf("frames recv = %d, want %d (only delivered frames)", snap.Counters.FramesRecv, failAt)
	}
	// R sent its header, the full Y_R stream (Begin + 4 chunks + End),
	// and the abort ErrorMsg — nothing more.
	if want := int64(1 + 6 + 1); snap.Counters.FramesSent != want {
		t.Errorf("frames sent = %d, want %d", snap.Counters.FramesSent, want)
	}
	waitGoroutines(t, base)
}

// TestParallelChunkValidation exercises the fused sorted/membership
// check across the worker shards: a clean large vector passes, a planted
// non-member is reported by index, a local inversion is reported as a
// sort violation, and with two defects the smaller index wins.
func TestParallelChunkValidation(t *testing.T) {
	cfg := testConfig(1)
	cfg.Parallelism = 4
	s := newSession(context.Background(), cfg, nil)

	elems := sortedCopy(s.cfg.Oracle.HashAll(vals("v", 100)))
	if err := s.checkElems(context.Background(), elems, 100, "vec", true); err != nil {
		t.Fatalf("valid vector rejected: %v", err)
	}

	bad := append([]*big.Int(nil), elems...)
	bad[57] = big.NewInt(0) // never a group member
	err := s.checkElems(context.Background(), bad, 100, "vec", false)
	if !errors.Is(err, ErrMalformedReply) || err == nil {
		t.Fatalf("non-member err = %v, want ErrMalformedReply", err)
	}
	if want := "vec element 57 is not a group member"; err.Error() != "core: malformed peer reply: "+want {
		t.Errorf("non-member err = %q, want suffix %q", err, want)
	}

	unsorted := append([]*big.Int(nil), elems...)
	unsorted[80], unsorted[81] = unsorted[81], unsorted[80]
	err = s.checkElems(context.Background(), unsorted, 100, "vec", true)
	if !errors.Is(err, ErrMalformedReply) {
		t.Fatalf("unsorted err = %v, want ErrMalformedReply", err)
	}

	both := append([]*big.Int(nil), elems...)
	both[90] = big.NewInt(0)
	both[10], both[11] = both[11], both[10]
	err = s.checkElems(context.Background(), both, 100, "vec", true)
	if err == nil {
		t.Fatal("two defects accepted")
	}
	if want := "vec is not sorted at index 11"; err.Error() != "core: malformed peer reply: "+want {
		t.Errorf("two-defect err = %q, want the smaller index: %q", err, want)
	}

	// Cross-chunk sortedness: prev boundary element out of order.
	if err := s.checkChunk(context.Background(), elems[50:], elems[60], 50, "vec", true, true); err == nil {
		t.Error("chunk accepted despite violating the cross-chunk boundary order")
	}
}
