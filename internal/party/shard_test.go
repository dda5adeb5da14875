package party

import (
	"context"
	"errors"
	"strings"
	"testing"

	"minshare/internal/core"
	"minshare/internal/group"
)

// shardedPipeClient is pipeClient with a shard-parallel receiver config.
func shardedPipeClient(t *testing.T, srv *Server, shards int) *Client {
	t.Helper()
	return NewClientConnFunc(core.Config{Group: group.TestGroup(), Shards: shards}, pipeDialer(t, srv))
}

func TestServerAdoptsShardedSessions(t *testing.T) {
	// The server's own Config leaves Shards at zero; it must adopt the
	// client's negotiated count from the handshake header and answer
	// through the sharded coordinator.
	srv := testServer(Policy{})
	client := shardedPipeClient(t, srv, 4)
	ctx := context.Background()
	query := [][]byte{[]byte("b"), []byte("x"), []byte("d"), []byte("q"), []byte("a")}

	res, err := client.Intersect(ctx, query)
	if err != nil {
		t.Fatalf("sharded Intersect: %v", err)
	}
	if len(res.Values) != 3 {
		t.Errorf("intersection = %d values, want 3", len(res.Values))
	}

	join, err := client.Join(ctx, query)
	if err != nil {
		t.Fatalf("sharded Join: %v", err)
	}
	if len(join.Matches) != 3 {
		t.Errorf("join matches = %d, want 3", len(join.Matches))
	}
	for _, m := range join.Matches {
		if want := "ext-" + string(m.Value); string(m.Ext) != want {
			t.Errorf("ext = %q, want %q", m.Ext, want)
		}
	}

	size, err := client.IntersectSize(ctx, query)
	if err != nil {
		t.Fatalf("sharded IntersectSize: %v", err)
	}
	if size.IntersectionSize != 3 {
		t.Errorf("size = %d, want 3", size.IntersectionSize)
	}
}

func TestPolicyShardCap(t *testing.T) {
	srv := testServer(Policy{MaxShards: 2})
	ctx := context.Background()
	q := [][]byte{[]byte("a"), []byte("b")}

	// Within the cap: answered.
	if _, err := shardedPipeClient(t, srv, 2).Intersect(ctx, q); err != nil {
		t.Fatalf("in-cap sharded session rejected: %v", err)
	}
	// Above the cap: refused with the policy reason on the wire.
	_, err := shardedPipeClient(t, srv, 4).Intersect(ctx, q)
	if err == nil {
		t.Fatal("over-cap shard count accepted")
	}
	if !errors.Is(err, core.ErrPeerFailure) {
		t.Errorf("client error = %v, want peer failure carrying policy text", err)
	}
	if !strings.Contains(err.Error(), "shard") {
		t.Errorf("error text %q lacks shard reason", err)
	}
}

func TestPolicyShardCapOneRefusesSharding(t *testing.T) {
	srv := testServer(Policy{MaxShards: 1})
	ctx := context.Background()

	if _, err := shardedPipeClient(t, srv, 2).Intersect(ctx, [][]byte{[]byte("a")}); err == nil {
		t.Fatal("MaxShards=1 server accepted a sharded session")
	}
	// Classic single sessions still pass.
	if _, err := pipeClient(t, srv).Intersect(ctx, [][]byte{[]byte("a")}); err != nil {
		t.Fatalf("unsharded session rejected: %v", err)
	}
}
