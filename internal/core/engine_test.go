package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// Refactor oracles for the protocol engine: the four protocols driven
// through one table, once against committed transcript digests (the
// wire must not move) and once across the execution-mode matrix (the
// answer must not depend on how a run is executed).

// engineInputs is the fixed input pair every engine test runs on: two
// overlapping sets, and multisets over them for the join-size protocol.
func engineInputs() (vR, vS, mR, mS [][]byte) {
	vR, vS = overlapping(7, 5, 3)
	mR = append(append([][]byte{}, vR...), vR[0], vR[0], vR[4])
	mS = append(append([][]byte{}, vS...), vS[0], vS[3], vS[3])
	return vR, vS, mR, mS
}

// protocolCase drives one protocol end to end over a connected pair of
// endpoints and reports R's answer in a canonical string; want is the
// same answer computed in the clear.
type protocolCase struct {
	name  string
	proto wire.Protocol
	run   func(ctx context.Context, cfgR, cfgS Config, connR, connS transport.Conn) (string, error)
	want  string
}

// runBoth runs the sender half in a goroutine and the receiver half
// inline, returning the receiver's rendering and the first error.
func runBoth[R any](ctx context.Context, send func() error, recv func() (R, error), render func(R) string) (string, error) {
	ch := make(chan error, 1)
	go func() { ch <- send() }()
	res, rErr := recv()
	if sErr := <-ch; sErr != nil {
		return "", fmt.Errorf("sender: %w", sErr)
	}
	if rErr != nil {
		return "", fmt.Errorf("receiver: %w", rErr)
	}
	return render(res), nil
}

func protocolCases() []protocolCase {
	vR, vS, mR, mS := engineInputs()
	var common [][]byte
	for v := range plaintextIntersection(vR, vS) {
		common = append(common, []byte(v))
	}
	joined := sortedStrings(common)
	for i, v := range joined {
		joined[i] = v + "=ext:" + v
	}
	dupS := map[string]int{}
	for _, v := range mS {
		dupS[string(v)]++
	}
	joinSize := 0
	for _, v := range mR {
		joinSize += dupS[string(v)]
	}
	return []protocolCase{
		{
			name: "intersection", proto: wire.ProtoIntersection,
			run: func(ctx context.Context, cfgR, cfgS Config, connR, connS transport.Conn) (string, error) {
				return runBoth(ctx,
					func() error { _, err := IntersectionSender(ctx, cfgS, connS, vS); return err },
					func() (*IntersectionResult, error) { return IntersectionReceiver(ctx, cfgR, connR, vR) },
					func(r *IntersectionResult) string {
						return fmt.Sprintf("%v |V_S|=%d", sortedStrings(r.Values), r.SenderSetSize)
					})
			},
			want: fmt.Sprintf("%v |V_S|=%d", sortedStrings(common), len(vS)),
		},
		{
			name: "equijoin", proto: wire.ProtoEquijoin,
			run: func(ctx context.Context, cfgR, cfgS Config, connR, connS transport.Conn) (string, error) {
				return runBoth(ctx,
					func() error { _, err := EquijoinSender(ctx, cfgS, connS, joinRecords(vS)); return err },
					func() (*JoinResult, error) { return EquijoinReceiver(ctx, cfgR, connR, vR) },
					func(r *JoinResult) string {
						ms := make([]string, len(r.Matches))
						for i, m := range r.Matches {
							ms[i] = string(m.Value) + "=" + string(m.Ext)
						}
						sort.Strings(ms)
						return fmt.Sprintf("%v |V_S|=%d", ms, r.SenderSetSize)
					})
			},
			want: fmt.Sprintf("%v |V_S|=%d", joined, len(vS)),
		},
		{
			name: "intersection-size", proto: wire.ProtoIntersectionSize,
			run: func(ctx context.Context, cfgR, cfgS Config, connR, connS transport.Conn) (string, error) {
				return runBoth(ctx,
					func() error { _, err := IntersectionSizeSender(ctx, cfgS, connS, vS); return err },
					func() (*SizeResult, error) { return IntersectionSizeReceiver(ctx, cfgR, connR, vR) },
					func(r *SizeResult) string {
						return fmt.Sprintf("size=%d |V_S|=%d", r.IntersectionSize, r.SenderSetSize)
					})
			},
			want: fmt.Sprintf("size=%d |V_S|=%d", len(common), len(vS)),
		},
		{
			name: "equijoin-size", proto: wire.ProtoEquijoinSize,
			run: func(ctx context.Context, cfgR, cfgS Config, connR, connS transport.Conn) (string, error) {
				return runBoth(ctx,
					func() error { _, err := EquijoinSizeSender(ctx, cfgS, connS, mS); return err },
					func() (*JoinSizeResult, error) { return EquijoinSizeReceiver(ctx, cfgR, connR, mR) },
					func(r *JoinSizeResult) string {
						return fmt.Sprintf("join=%d |T_S|=%d dist=%v", r.JoinSize, r.SenderMultisetSize, r.SenderDuplicateDistribution)
					})
			},
			want: fmt.Sprintf("join=%d |T_S|=%d dist=%v", joinSize, len(mS), DuplicateDistributionValues(mS)),
		},
	}
}

// transcriptDigest is the SHA-256 of a direction's frame sequence, each
// frame length-prefixed so frame boundaries are part of the digest.
func transcriptDigest(frames [][]byte) string {
	h := sha256.New()
	for _, f := range frames {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(f)))
		h.Write(n[:])
		h.Write(f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenTranscripts pins, per protocol and ChunkSize, the digest of
// everything R sent and everything S sent on engineInputs with
// testConfig seeds 1 (R) and 2 (S).  They were recorded at the commit
// preceding the engine rewrite; a change here is a wire-format change.
var goldenTranscripts = map[string][2]string{
	"intersection/chunk=0": {
		"7bb5d64a904cc888db797ca021082ce803d5b87ccbf26b8b449c125b5ed8a11d",
		"7785fe9181791f29e84e850aa00d6118ba5785e3b59cdfe97030b496a1aae374",
	},
	"intersection/chunk=3": {
		"cc0483c4f0c577c22bd3ccd1079bd6f8d0f085ee66b1069089bbd37109fabd7c",
		"4aa9f64d9c65123c28c63a585ee0656ef57eda12003ceb8f578ddcaade07b59e",
	},
	"equijoin/chunk=0": {
		"445406e118ca4939bec115f1bd46f902917a9467f310260fd208aba409a63971",
		"3e77c4d0f9e0c8d356cd919acf695564b15b9a91cde112d6c7fc7a2dfe9a6e5f",
	},
	"equijoin/chunk=3": {
		"6b5cac3bcbfd3952256903d110ee64c8f93d44791d144a101184950a5898a2c3",
		"27649147ba256005eae7c0ea9c304c93bc250b0a667149dda0bbce2ae15ff15d",
	},
	"intersection-size/chunk=0": {
		"45ab2bc882f117d375a36f3cceacf9aa18248e457ceb199a9a3a0c3b9a269452",
		"d0d9f6aa68f1444c5fb2da29e299e75b793580629999f86d36de1e4cf11a3e2c",
	},
	"intersection-size/chunk=3": {
		"6336f76276ce9200ea906fc2d52cfd14a59c73f4336f610e30e3b0f6e2ac530f",
		"dd0b0003c93f62d7c1a7e7a036a3c53ba894f06917adfee3b3382270ae6ef7ab",
	},
	"equijoin-size/chunk=0": {
		"bab8dae081cde26d6f1c32c762b16befe37f4504d25f0223072184431bffec38",
		"3d12aa133acb81bb7915459b4760101595234027db2f91b44da549f307adc0db",
	},
	"equijoin-size/chunk=3": {
		"9303494db26741b45cba5e766c04ca90e646bec7609791c86182ca624eefd6f9",
		"83dec5f74a0f10dc6e7d1c90e451f385245be2142a5315357fabc2baef5b42b5",
	},
}

// TestTranscriptDigestGolden runs each protocol classic and chunked
// with seeded keys and compares both directions' frame sequences,
// byte for byte, against the committed digests.
func TestTranscriptDigestGolden(t *testing.T) {
	for _, pc := range protocolCases() {
		for _, chunk := range []int{0, 3} {
			name := fmt.Sprintf("%s/chunk=%d", pc.name, chunk)
			t.Run(name, func(t *testing.T) {
				connR, connS := transport.Pipe()
				defer connR.Close()
				defer connS.Close()
				recR, recS := &recordConn{Conn: connR}, &recordConn{Conn: connS}
				got, err := pc.run(context.Background(), testConfigChunked(1, chunk), testConfigChunked(2, chunk), recR, recS)
				if err != nil {
					t.Fatal(err)
				}
				if got != pc.want {
					t.Errorf("result = %s, want %s", got, pc.want)
				}
				digests := [2]string{transcriptDigest(recR.frames()), transcriptDigest(recS.frames())}
				if want := goldenTranscripts[name]; digests != want {
					t.Errorf("transcript digests moved:\n got {%q, %q}\nwant {%q, %q}", digests[0], digests[1], want[0], want[1])
				}
			})
		}
	}
}

// TestModeMatrixInvariant runs every protocol through the execution-mode
// cross-product — classic or chunked wire, one pipeline or four shards,
// cold or cache-warm sender — and requires the plaintext answer in every
// cell.  The warm run must actually be warm: every slot the cold run
// filled is hit, none is rebuilt.
func TestModeMatrixInvariant(t *testing.T) {
	for _, pc := range protocolCases() {
		for _, chunk := range []int{0, 3} {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/chunk=%d/k=%d", pc.name, chunk, shards), func(t *testing.T) {
					stats := &obs.CacheStats{}
					cache := NewSenderSetCache(0, stats)
					for i, temp := range []string{"cold", "warm"} {
						cfgR := shardedConfig(int64(10+i), shards, chunk)
						cfgS := shardedConfig(int64(20+i), shards, chunk)
						cfgS.SetCache = cache
						cfgS.CacheKey = cacheKey(pc.proto)
						connR, connS := transport.Pipe()
						got, err := pc.run(context.Background(), cfgR, cfgS, connR, connS)
						connR.Close()
						connS.Close()
						if err != nil {
							t.Fatalf("%s: %v", temp, err)
						}
						if got != pc.want {
							t.Errorf("%s: result = %s, want %s", temp, got, pc.want)
						}
					}
					snap := stats.Snapshot()
					if snap.Hits != int64(shards) || snap.Misses != int64(shards) {
						t.Errorf("cache census = %d hits / %d misses, want %d / %d (one slot per shard, filled cold, replayed warm)",
							snap.Hits, snap.Misses, shards, shards)
					}
					if cache.Len() != shards {
						t.Errorf("cache holds %d entries, want %d", cache.Len(), shards)
					}
				})
			}
		}
	}
}
