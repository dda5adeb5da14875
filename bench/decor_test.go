package bench

import (
	"bytes"
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"minshare/internal/commutative"
	"minshare/internal/core"
	"minshare/internal/group"
	"minshare/internal/transport"
)

// pcgReader is a deterministic randomness source for key generation, so a
// decorated and an undecorated run draw the same keys.
type pcgReader struct{ rng *rand.Rand }

func (r pcgReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.rng.Uint32())
	}
	return len(p), nil
}

// view is everything observable about one protocol run: both parties'
// transcripts, the receiver's result, and the C_e census.
type view struct {
	sentR, recvdR, sentS, recvdS [][]byte
	result                       any
	ce                           int64
}

// runViewed runs one protocol over tapped pipe endpoints, with or without
// the timing decorators, on fixed inputs and fixed key randomness.
func runViewed(t *testing.T, decorated bool, chunk int,
	recv func(ctx context.Context, cfg core.Config, conn transport.Conn) (any, error),
	send func(ctx context.Context, cfg core.Config, conn transport.Conn) error,
) (view, *tracer) {
	t.Helper()
	g := group.TestGroup()
	a, b := transport.Pipe()
	tapR, tapS := transport.NewTap(a), transport.NewTap(b)
	defer tapR.Close()
	var connR, connS transport.Conn = tapR, tapS
	cfgR := core.Config{Group: g, ChunkSize: chunk, Rand: pcgReader{rand.New(rand.NewPCG(1, 1))}}
	cfgS := core.Config{Group: g, ChunkSize: chunk, Rand: pcgReader{rand.New(rand.NewPCG(2, 2))}}
	tr := newTracer()
	if decorated {
		log := &frameLog{}
		scR := scope{tr: tr, parent: 1, role: roleReceiver}
		scS := scope{tr: tr, parent: 2, role: roleSender}
		cfgR, cfgS = tracedConfig(cfgR, scR), tracedConfig(cfgS, scS)
		connR = &tracedConn{inner: tapR, sc: scR, log: log, capture: true}
		connS = &tracedConn{inner: tapS, sc: scS, log: log}
	} else {
		cfgR.Scheme, cfgS.Scheme = commutative.NewPowerFn(g), commutative.NewPowerFn(g)
	}
	countR, countS := commutative.NewCounting(cfgR.Scheme), commutative.NewCounting(cfgS.Scheme)
	cfgR.Scheme, cfgS.Scheme = countR, countS

	ctx := context.Background()
	errS := make(chan error, 1)
	go func() { errS <- send(ctx, cfgS, connS) }()
	res, err := recv(ctx, cfgR, connR)
	if err != nil {
		t.Fatalf("receiver: %v", err)
	}
	if err := <-errS; err != nil {
		t.Fatalf("sender: %v", err)
	}
	return view{
		sentR: tapR.Sent(), recvdR: tapR.Received(), sentS: tapS.Sent(), recvdS: tapS.Received(),
		result: res, ce: countR.Ops() + countS.Ops(),
	}, tr
}

// TestDecoratorsAreTransparent holds the decorators to their contract:
// byte-identical transcripts, identical results and an identical C_e
// census with and without them, in classic and chunked framing.
func TestDecoratorsAreTransparent(t *testing.T) {
	g := newValueGen(newRNG(7, "decor"))
	sets := genSets(g, 9, 12, 5)
	join := genJoin(g, 7, 10, 4, 40)
	protocols := map[string]struct {
		recv func(ctx context.Context, cfg core.Config, conn transport.Conn) (any, error)
		send func(ctx context.Context, cfg core.Config, conn transport.Conn) error
	}{
		"intersection": {
			func(ctx context.Context, cfg core.Config, conn transport.Conn) (any, error) {
				return core.IntersectionReceiver(ctx, cfg, conn, sets.vR)
			},
			func(ctx context.Context, cfg core.Config, conn transport.Conn) error {
				_, err := core.IntersectionSender(ctx, cfg, conn, sets.vS)
				return err
			},
		},
		"equijoin": {
			func(ctx context.Context, cfg core.Config, conn transport.Conn) (any, error) {
				return core.EquijoinReceiver(ctx, cfg, conn, join.vR)
			},
			func(ctx context.Context, cfg core.Config, conn transport.Conn) error {
				_, err := core.EquijoinSender(ctx, cfg, conn, join.records)
				return err
			},
		},
	}
	for name, p := range protocols {
		for _, chunk := range []int{0, 3} {
			plain, _ := runViewed(t, false, chunk, p.recv, p.send)
			traced, tr := runViewed(t, true, chunk, p.recv, p.send)
			for _, d := range []struct {
				what string
				a, b [][]byte
			}{
				{"R sent", plain.sentR, traced.sentR}, {"R received", plain.recvdR, traced.recvdR},
				{"S sent", plain.sentS, traced.sentS}, {"S received", plain.recvdS, traced.recvdS},
			} {
				if !reflect.DeepEqual(d.a, d.b) {
					t.Errorf("%s chunk=%d: frames %s differ under the decorators", name, chunk, d.what)
				}
			}
			if !reflect.DeepEqual(plain.result, traced.result) {
				t.Errorf("%s chunk=%d: result differs under the decorators", name, chunk)
			}
			if plain.ce != traced.ce {
				t.Errorf("%s chunk=%d: C_e census %d undecorated, %d decorated", name, chunk, plain.ce, traced.ce)
			}
			all := func(k kind) int64 { return tr.sum(0, tr.now(), ofKind(k)).n }
			if seen := all(kEncrypt) + all(kDecrypt); seen != traced.ce {
				t.Errorf("%s chunk=%d: scheme decorator saw %d C_e, commutative.Counting %d", name, chunk, seen, traced.ce)
			}
			if frames := all(kSend); frames != int64(len(traced.sentR)+len(traced.sentS)) {
				t.Errorf("%s chunk=%d: conn decorator saw %d sends, the taps %d", name, chunk, frames, len(traced.sentR)+len(traced.sentS))
			}
		}
	}
}

// TestCodecViewStripsMuxFraming pins the conn decorator's reading of
// transport.Mux framing: the first frame each way is the raw outer
// handshake, later ones carry a shard tag, 0xFF marks a control frame.
func TestCodecViewStripsMuxFraming(t *testing.T) {
	muxed, plain := &tracedConn{muxed: true}, &tracedConn{}
	data := []byte{2, 7, 7, 7}
	control := []byte{muxControlTag, 1, 16}
	if got := muxed.codecView(data, 0); !bytes.Equal(got, data) {
		t.Errorf("outer handshake frame = %v, want it untouched", got)
	}
	if got := muxed.codecView(data, 3); !bytes.Equal(got, data[1:]) {
		t.Errorf("data frame = %v, want the shard tag stripped", got)
	}
	if got := muxed.codecView(control, 3); got != nil {
		t.Errorf("control frame = %v, want nil", got)
	}
	if got := plain.codecView(control, 3); !bytes.Equal(got, control) {
		t.Errorf("unmuxed frame = %v, want it untouched", got)
	}
}
