package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"minshare/internal/transport"
)

// shardedConfig is testConfig with a shard count.
func shardedConfig(seed int64, shards, chunk int) Config {
	cfg := testConfig(seed)
	cfg.Shards = shards
	cfg.ChunkSize = chunk
	return cfg
}

// valueIndex maps each (distinct) value to its position in vs.
func valueIndex(vs [][]byte) map[string]int {
	idx := make(map[string]int, len(vs))
	for i, v := range vs {
		idx[string(v)] = i
	}
	return idx
}

func TestShardedIntersectionMatchesUnsharded(t *testing.T) {
	const nR, nS, shared = 23, 19, 9
	vR, vS := overlapping(nR, nS, shared)
	want := plaintextIntersection(vR, vS)

	for _, k := range []int{2, 4, 8} {
		for _, chunk := range []int{0, 5} {
			t.Run(fmt.Sprintf("k=%d chunk=%d", k, chunk), func(t *testing.T) {
				res, info := runPair(t,
					func(ctx context.Context, conn transport.Conn) (*IntersectionResult, error) {
						return IntersectionReceiver(ctx, shardedConfig(1, k, chunk), conn, vR)
					},
					func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
						return IntersectionSender(ctx, shardedConfig(2, k, chunk), conn, vS)
					})
				if len(res.Values) != len(want) {
					t.Fatalf("intersection has %d values, want %d", len(res.Values), len(want))
				}
				for _, v := range res.Values {
					if !want[string(v)] {
						t.Errorf("spurious value %q", v)
					}
				}
				// The merge preserves R's input order, like the unsharded run.
				pos := -1
				idx := valueIndex(vR)
				for _, v := range res.Values {
					if p := idx[string(v)]; p <= pos {
						t.Errorf("values out of R's input order at %q", v)
					} else {
						pos = p
					}
				}
				if res.SenderSetSize != nS || info.ReceiverSetSize != nR {
					t.Errorf("sizes: R learned |V_S| = %d (want %d), S learned |V_R| = %d (want %d)",
						res.SenderSetSize, nS, info.ReceiverSetSize, nR)
				}
			})
		}
	}
}

func TestShardedIntersectionSize(t *testing.T) {
	const nR, nS, shared = 17, 21, 6
	vR, vS := overlapping(nR, nS, shared)
	res, info := runPair(t,
		func(ctx context.Context, conn transport.Conn) (*SizeResult, error) {
			return IntersectionSizeReceiver(ctx, shardedConfig(3, 4, 0), conn, vR)
		},
		func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
			return IntersectionSizeSender(ctx, shardedConfig(4, 4, 0), conn, vS)
		})
	if res.IntersectionSize != shared {
		t.Errorf("size = %d, want %d", res.IntersectionSize, shared)
	}
	if res.SenderSetSize != nS || info.ReceiverSetSize != nR {
		t.Errorf("sizes: %d/%d, want %d/%d", res.SenderSetSize, info.ReceiverSetSize, nS, nR)
	}
}

func TestShardedEquijoin(t *testing.T) {
	const nR, nS, shared = 15, 13, 5
	vR, vS := overlapping(nR, nS, shared)
	records := make([]JoinRecord, len(vS))
	for i, v := range vS {
		records[i] = JoinRecord{Value: v, Ext: append([]byte("ext-of-"), v...)}
	}
	res, info := runPair(t,
		func(ctx context.Context, conn transport.Conn) (*JoinResult, error) {
			return EquijoinReceiver(ctx, shardedConfig(5, 4, 3), conn, vR)
		},
		func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
			return EquijoinSender(ctx, shardedConfig(6, 4, 3), conn, records)
		})
	want := plaintextIntersection(vR, vS)
	if len(res.Matches) != len(want) {
		t.Fatalf("%d matches, want %d", len(res.Matches), len(want))
	}
	for _, m := range res.Matches {
		if !want[string(m.Value)] {
			t.Errorf("spurious match %q", m.Value)
		}
		if wantExt := append([]byte("ext-of-"), m.Value...); !bytes.Equal(m.Ext, wantExt) {
			t.Errorf("match %q carries ext %q, want %q", m.Value, m.Ext, wantExt)
		}
	}
	if res.SenderSetSize != nS || info.ReceiverSetSize != nR {
		t.Errorf("sizes: %d/%d, want %d/%d", res.SenderSetSize, info.ReceiverSetSize, nS, nR)
	}
}

func TestShardedEquijoinSize(t *testing.T) {
	// Multisets with duplicates: dup counts multiply in the join size.
	vR := [][]byte{[]byte("a"), []byte("a"), []byte("b"), []byte("c"), []byte("x")}
	vS := [][]byte{[]byte("a"), []byte("b"), []byte("b"), []byte("b"), []byte("y"), []byte("y")}
	// join on a: 2*1, on b: 1*3 → 5.
	res, info := runPair(t,
		func(ctx context.Context, conn transport.Conn) (*JoinSizeResult, error) {
			return EquijoinSizeReceiver(ctx, shardedConfig(7, 3, 0), conn, vR)
		},
		func(ctx context.Context, conn transport.Conn) (*JoinSizeSenderInfo, error) {
			return EquijoinSizeSender(ctx, shardedConfig(8, 3, 0), conn, vS)
		})
	if res.JoinSize != 5 {
		t.Errorf("join size = %d, want 5", res.JoinSize)
	}
	if res.SenderMultisetSize != len(vS) || info.ReceiverMultisetSize != len(vR) {
		t.Errorf("multiset sizes: %d/%d, want %d/%d", res.SenderMultisetSize, info.ReceiverMultisetSize, len(vS), len(vR))
	}
	// S's distribution: a×1, b×3, y×2 → {1:1, 3:1, 2:1}; R's: a×2, b,c,x ×1 → {2:1, 1:3}.
	if want := map[int]int{1: 1, 2: 1, 3: 1}; !reflect.DeepEqual(res.SenderDuplicateDistribution, want) {
		t.Errorf("sender dup distribution = %v, want %v", res.SenderDuplicateDistribution, want)
	}
	if want := map[int]int{1: 3, 2: 1}; !reflect.DeepEqual(info.ReceiverDuplicateDistribution, want) {
		t.Errorf("receiver dup distribution = %v, want %v", info.ReceiverDuplicateDistribution, want)
	}
}

// TestShardMismatchFailsExplicitly: differently-sharded parties must
// fail the handshake with ErrShardMismatch (or see the peer's abort),
// never run a protocol over inconsistent partitions.
func TestShardMismatchFailsExplicitly(t *testing.T) {
	vR, vS := overlapping(6, 6, 2)
	for _, tc := range []struct {
		name   string
		kR, kS int
	}{
		{"sharded vs unsharded", 4, 0},
		{"unsharded vs sharded", 0, 4},
		{"4 vs 8", 4, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rErr, sErr := runPairExpectErr(
				func(ctx context.Context, conn transport.Conn) (*IntersectionResult, error) {
					return IntersectionReceiver(ctx, shardedConfig(1, tc.kR, 0), conn, vR)
				},
				func(ctx context.Context, conn transport.Conn) (*SenderInfo, error) {
					return IntersectionSender(ctx, shardedConfig(2, tc.kS, 0), conn, vS)
				})
			if rErr == nil || sErr == nil {
				t.Fatalf("mixed shard counts succeeded: receiver err %v, sender err %v", rErr, sErr)
			}
			mismatch := func(err error) bool {
				return errors.Is(err, ErrShardMismatch) || errors.Is(err, ErrPeerFailure)
			}
			if !mismatch(rErr) || !mismatch(sErr) {
				t.Errorf("errors are not explicit shard mismatches: receiver %v, sender %v", rErr, sErr)
			}
			if !errors.Is(rErr, ErrShardMismatch) && !errors.Is(sErr, ErrShardMismatch) {
				t.Errorf("neither side reported ErrShardMismatch: receiver %v, sender %v", rErr, sErr)
			}
		})
	}
}

func TestShardCountOutOfRange(t *testing.T) {
	vR, _ := overlapping(4, 4, 1)
	cfg := shardedConfig(1, transport.MaxShards+1, 0)
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	if _, err := IntersectionReceiver(context.Background(), cfg, a, vR); err == nil {
		t.Error("shard count beyond transport.MaxShards accepted")
	}
}

// recordingConn taps every frame crossing a Conn, for transcript
// byte-identity checks.
type recordingConn struct {
	transport.Conn
	mu     sync.Mutex
	frames [][]byte
}

func (r *recordingConn) Send(ctx context.Context, frame []byte) error {
	r.mu.Lock()
	r.frames = append(r.frames, append([]byte(nil), frame...))
	r.mu.Unlock()
	return r.Conn.Send(ctx, frame)
}

func (r *recordingConn) transcript() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frames
}

// TestShardsOneByteIdenticalTranscript pins the k=1 compatibility
// guarantee end to end: a session configured with Shards = 1 (or 0)
// produces exactly the pre-shard wire transcript, frame for frame and
// byte for byte.
func TestShardsOneByteIdenticalTranscript(t *testing.T) {
	const nR, nS, shared = 9, 7, 3
	vR, vS := overlapping(nR, nS, shared)

	capture := func(shards int) (recvFrames, sendFrames [][]byte) {
		connR, connS := transport.Pipe()
		defer connR.Close()
		rc := &recordingConn{Conn: connR}
		sc := &recordingConn{Conn: connS}
		cfgR, cfgS := testConfig(11), testConfig(12)
		cfgR.Shards, cfgS.Shards = shards, shards
		ctx := context.Background()
		done := make(chan error, 1)
		go func() {
			_, err := IntersectionSender(ctx, cfgS, sc, vS)
			done <- err
		}()
		if _, err := IntersectionReceiver(ctx, cfgR, rc, vR); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return rc.transcript(), sc.transcript()
	}

	r0, s0 := capture(0)
	r1, s1 := capture(1)
	for _, side := range []struct {
		name string
		a, b [][]byte
	}{{"receiver", r0, r1}, {"sender", s0, s1}} {
		if len(side.a) != len(side.b) {
			t.Fatalf("%s: %d frames with Shards=0 vs %d with Shards=1", side.name, len(side.a), len(side.b))
		}
		for i := range side.a {
			if !bytes.Equal(side.a[i], side.b[i]) {
				t.Errorf("%s frame %d differs between Shards=0 and Shards=1\n got %x\nwant %x",
					side.name, i, side.b[i], side.a[i])
			}
		}
	}
}

// TestShardPartitionDeterministic: both parties must bucket a value
// identically, and every value must land in exactly one bucket.
func TestShardPartitionDeterministic(t *testing.T) {
	ctx := context.Background()
	s1 := newSession(ctx, testConfig(1), nil)
	s2 := newSession(ctx, testConfig(99), nil)

	values := vals("v-", 64)
	const k = 8
	b1, idx1 := s1.shardPartition(values, k)
	b2, _ := s2.shardPartition(values, k)

	total := 0
	for i := range b1 {
		total += len(b1[i])
		if len(b1[i]) != len(b2[i]) {
			t.Fatalf("shard %d: parties disagree on bucket size (%d vs %d)", i, len(b1[i]), len(b2[i]))
		}
		for j := range b1[i] {
			if !bytes.Equal(b1[i][j], b2[i][j]) {
				t.Fatalf("shard %d entry %d: parties disagree", i, j)
			}
			if !bytes.Equal(values[idx1[i][j]], b1[i][j]) {
				t.Fatalf("shard %d entry %d: index map broken", i, j)
			}
		}
	}
	if total != len(values) {
		t.Errorf("buckets cover %d values, want %d", total, len(values))
	}
}
