package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"minshare/internal/transport"
	"minshare/internal/wire"
)

// Mid-stream shard-failure tests: one shard's peer misbehaves while the
// siblings proceed.  The session must fail atomically — an error on
// both sides, never a partial result — and every goroutine the
// coordinator, the fan-out, and the mux spawned must drain.

// openShards is the opening of runSharded — outer handshake, then the
// mux — for the hand-driven hostile senders below, which then run (or
// withhold, or falsify) the per-shard sub-sessions themselves.  The
// returned mux is started; the caller must Stop it.
func openShards(ctx context.Context, outer *session, announce int, conn transport.Conn) (*transport.Mux, error) {
	if _, err := outer.handshake(ctx, wire.ProtoIntersection, announce, false); err != nil {
		return nil, err
	}
	mux, err := transport.NewMux(conn, outer.cfg.Shards)
	if err != nil {
		return nil, err
	}
	mux.Start()
	return mux, nil
}

// settleGoroutines waits for the goroutine count to return to base,
// failing the test with a full stack dump if it does not.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d running, %d at test start\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardedWireErrorFailsAtomically: the peer sends a wire-level
// error on one shard while serving the others honestly.  The receiver
// must surface ErrPeerFailure and no partial intersection.
func TestShardedWireErrorFailsAtomically(t *testing.T) {
	const k, bad = 4, 2
	base := runtime.NumGoroutine()
	vR, vS := overlapping(20, 20, 8)

	ctx := context.Background()
	connR, connS := transport.Pipe()
	defer connR.Close()
	defer connS.Close()

	errInjected := errors.New("injected shard failure")
	sendDone := make(chan error, 1)
	go func() {
		sendDone <- func() error {
			cfg := shardedConfig(2, k, 0)
			outer := newSession(ctx, cfg, connS)
			vs := dedup(vS)
			mux, err := openShards(ctx, outer, len(vs), connS)
			if err != nil {
				return err
			}
			defer mux.Stop()
			buckets, _ := outer.shardPartition(vs, k)
			tmpl := shardBaseConfig(cfg)
			_, err = shardFanout(ctx, k, func(ctx context.Context, i int) (*SenderInfo, error) {
				if i != bad {
					return IntersectionSender(ctx, shardConfig(tmpl, i, k), mux.Shard(i), buckets[i])
				}
				frame, ferr := outer.codec.Encode(wire.ErrorMsg{Text: errInjected.Error()})
				if ferr != nil {
					return nil, ferr
				}
				if serr := mux.Shard(i).Send(ctx, frame); serr != nil {
					return nil, serr
				}
				return nil, errInjected
			})
			return err
		}()
	}()

	res, rErr := IntersectionReceiver(ctx, shardedConfig(1, k, 0), connR, vR)
	sErr := <-sendDone
	if rErr == nil || res != nil {
		t.Fatalf("receiver survived a shard wire error: res=%v err=%v", res, rErr)
	}
	if !errors.Is(rErr, ErrPeerFailure) {
		t.Errorf("receiver error = %v, want ErrPeerFailure", rErr)
	}
	if !errors.Is(sErr, errInjected) {
		t.Errorf("sender fan-out error = %v, want the injected failure", sErr)
	}
	connR.Close()
	connS.Close()
	settleGoroutines(t, base)
}

// TestShardedStallFailsAtomically: the peer serves every shard except
// one, which it leaves silent forever.  Siblings complete; the session
// must stay result-free and unwind cleanly when the caller cancels.
func TestShardedStallFailsAtomically(t *testing.T) {
	const k, bad = 4, 1
	base := runtime.NumGoroutine()
	vR, vS := overlapping(16, 16, 5)

	connR, connS := transport.Pipe()
	defer connR.Close()
	defer connS.Close()

	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	goodDone := make(chan struct{})
	sendDone := make(chan error, 1)
	go func() {
		sendDone <- func() error {
			cfg := shardedConfig(2, k, 0)
			outer := newSession(sctx, cfg, connS)
			vs := dedup(vS)
			mux, err := openShards(sctx, outer, len(vs), connS)
			if err != nil {
				return err
			}
			defer mux.Stop()
			buckets, _ := outer.shardPartition(vs, k)
			tmpl := shardBaseConfig(cfg)
			var wg sync.WaitGroup
			for i := 0; i < k; i++ {
				if i == bad {
					continue // the stall: never even a sub-handshake
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					// Sibling errors are expected once the receiver
					// cancels; the assertions live on the receiver side.
					_, _ = IntersectionSender(sctx, shardConfig(tmpl, i, k), mux.Shard(i), buckets[i])
				}(i)
			}
			wg.Wait()
			close(goodDone)
			<-sctx.Done()
			return sctx.Err()
		}()
	}()

	rctx, rcancel := context.WithCancel(context.Background())
	defer rcancel()
	type recvOut struct {
		res *IntersectionResult
		err error
	}
	recvDone := make(chan recvOut, 1)
	go func() {
		res, err := IntersectionReceiver(rctx, shardedConfig(1, k, 0), connR, vR)
		recvDone <- recvOut{res, err}
	}()

	// Let every healthy shard finish end to end, then give up on the
	// stalled one.
	select {
	case <-goodDone:
	case <-time.After(10 * time.Second):
		t.Fatal("healthy shards did not complete")
	}
	rcancel()
	out := <-recvDone
	if out.err == nil || out.res != nil {
		t.Fatalf("receiver produced a result despite a stalled shard: res=%v err=%v", out.res, out.err)
	}
	scancel()
	if err := <-sendDone; !errors.Is(err, context.Canceled) {
		t.Errorf("stalling sender returned %v, want context.Canceled", err)
	}
	connR.Close()
	connS.Close()
	settleGoroutines(t, base)
}

// TestShardedSizeSumMismatchRejected: the peer's outer handshake
// announces a total that its per-shard sub-handshakes do not add up to.
// Every sub-protocol completes honestly, yet the coordinator must
// refuse to assemble a result from inconsistent claims.
func TestShardedSizeSumMismatchRejected(t *testing.T) {
	const k = 3
	base := runtime.NumGoroutine()
	vR, vS := overlapping(12, 12, 4)

	ctx := context.Background()
	connR, connS := transport.Pipe()
	defer connR.Close()
	defer connS.Close()

	sendDone := make(chan error, 1)
	go func() {
		sendDone <- func() error {
			cfg := shardedConfig(2, k, 0)
			outer := newSession(ctx, cfg, connS)
			vs := dedup(vS)
			// The lie: announce three phantom values.
			mux, err := openShards(ctx, outer, len(vs)+3, connS)
			if err != nil {
				return err
			}
			defer mux.Stop()
			buckets, _ := outer.shardPartition(vs, k)
			tmpl := shardBaseConfig(cfg)
			_, err = shardFanout(ctx, k, func(ctx context.Context, i int) (*SenderInfo, error) {
				return IntersectionSender(ctx, shardConfig(tmpl, i, k), mux.Shard(i), buckets[i])
			})
			return err
		}()
	}()

	res, rErr := IntersectionReceiver(ctx, shardedConfig(1, k, 0), connR, vR)
	if err := <-sendDone; err != nil {
		t.Fatalf("lying sender's sub-protocols failed early: %v", err)
	}
	if rErr == nil || res != nil {
		t.Fatalf("receiver accepted inconsistent size claims: res=%v err=%v", res, rErr)
	}
	if !errors.Is(rErr, ErrMalformedReply) {
		t.Errorf("receiver error = %v, want ErrMalformedReply", rErr)
	}
	connR.Close()
	connS.Close()
	settleGoroutines(t, base)
}
