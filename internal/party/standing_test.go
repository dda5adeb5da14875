package party

import (
	"context"
	"errors"
	"testing"
	"time"

	"minshare/internal/core"
	"minshare/internal/group"
	"minshare/internal/obs"
	"minshare/internal/reldb"
)

// standingTable builds a live table with one row per value in vals.
func standingTable(t *testing.T, vals ...string) *reldb.Table {
	t.Helper()
	tbl := reldb.NewTable("accounts", reldb.MustSchema(
		reldb.Column{Name: "v", Type: reldb.TypeString},
		reldb.Column{Name: "note", Type: reldb.TypeString},
	))
	for _, v := range vals {
		tbl.MustInsert(reldb.String(v), reldb.String("note-"+v))
	}
	return tbl
}

func standingServer(tbl *reldb.Table) *Server {
	return &Server{
		Config: core.Config{Group: group.TestGroup()},
		Source: MustBindTable(tbl, "v"),
		// The tiny test sets churn over the default quarter-set bound.
		DeltaChurnMax: 1,
		Standing:      true,
	}
}

func enc(s string) []byte { return reldb.String(s).Encode() }

func valueSet(res *core.IntersectionResult) map[string]bool {
	out := make(map[string]bool, len(res.Values))
	for _, v := range res.Values {
		dv, err := reldb.DecodeValue(v)
		if err != nil {
			out[string(v)] = true
			continue
		}
		out[dv.AsString()] = true
	}
	return out
}

// TestStandingServerPushesUpdates drives a standing intersection
// end-to-end through HandleConn: base run, a push per table mutation,
// and a clean client-side close.
func TestStandingServerPushesUpdates(t *testing.T) {
	tbl := standingTable(t, "a", "b", "c", "d")
	srv := standingServer(tbl)
	client := pipeClient(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	q, err := client.IntersectStanding(ctx, [][]byte{enc("b"), enc("d"), enc("x")})
	if err != nil {
		t.Fatalf("IntersectStanding: %v", err)
	}
	defer q.Close(ctx)
	if got := valueSet(q.Result()); !got["b"] || !got["d"] || len(got) != 2 {
		t.Fatalf("base intersection = %v", got)
	}
	if q.Version() != tbl.Version() {
		t.Fatalf("base version = %d, table at %d", q.Version(), tbl.Version())
	}

	// The server notices the insert and pushes: "x" joins the result.
	tbl.MustInsert(reldb.String("x"), reldb.String("note-x"))
	res, err := q.Await(ctx)
	if err != nil {
		t.Fatalf("Await after insert: %v", err)
	}
	if got := valueSet(res); !got["x"] || len(got) != 3 {
		t.Fatalf("after insert intersection = %v", got)
	}

	// A deletion shrinks it again.
	tbl.Delete(func(r reldb.Row) bool { return r[0].AsString() == "b" })
	res, err = q.Await(ctx)
	if err != nil {
		t.Fatalf("Await after delete: %v", err)
	}
	if got := valueSet(res); got["b"] || len(got) != 2 {
		t.Fatalf("after delete intersection = %v", got)
	}
	if q.Version() != tbl.Version() {
		t.Errorf("version = %d, table at %d", q.Version(), tbl.Version())
	}

	if err := q.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestStandingServerJoinUpdatesExt verifies a standing equijoin sees
// ext(v) changes: an updated row group reaches the subscriber as a
// fresh payload without a new protocol run.
func TestStandingServerJoinUpdatesExt(t *testing.T) {
	tbl := standingTable(t, "a", "b", "c")
	srv := standingServer(tbl)
	client := pipeClient(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	q, err := client.JoinStanding(ctx, [][]byte{enc("a"), enc("c")})
	if err != nil {
		t.Fatalf("JoinStanding: %v", err)
	}
	defer q.Close(ctx)
	base := q.Result()
	if len(base.Matches) != 2 {
		t.Fatalf("base matches = %d, want 2", len(base.Matches))
	}
	var aExt []byte
	for _, m := range base.Matches {
		if dv, err := reldb.DecodeValue(m.Value); err == nil && dv.AsString() == "a" {
			aExt = m.Ext
		}
	}
	if aExt == nil {
		t.Fatal("no match for a in base result")
	}

	// Rewriting a's row group changes ext(a) but not set membership.
	tbl.Delete(func(r reldb.Row) bool { return r[0].AsString() == "a" })
	tbl.MustInsert(reldb.String("a"), reldb.String("REWRITTEN"))
	// The delete and the insert are two version steps, which the server
	// may push as one update or — if its pump wakes in between — as two.
	res, err := q.Await(ctx)
	for err == nil && q.Version() < tbl.Version() {
		res, err = q.Await(ctx)
	}
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("matches after update = %d, want 2", len(res.Matches))
	}
	for _, m := range res.Matches {
		dv, err := reldb.DecodeValue(m.Value)
		if err != nil || dv.AsString() != "a" {
			continue
		}
		rows, err := reldb.DecodeRows(m.Ext, 2)
		if err != nil {
			t.Fatalf("decoding updated ext: %v", err)
		}
		if len(rows) != 1 || rows[0][1].AsString() != "REWRITTEN" {
			t.Errorf("updated ext rows = %v", rows)
		}
	}
}

// TestStandingServerServesOneShotClients certifies a Standing server is
// invisible to classic receivers: every one-shot protocol still runs,
// and the equijoin-size path (which has no standing mode) works off the
// bound table's multiset.
func TestStandingServerServesOneShotClients(t *testing.T) {
	tbl := standingTable(t, "a", "b", "c", "d")
	tbl.MustInsert(reldb.String("a"), reldb.String("dup")) // multiset: a twice
	srv := standingServer(tbl)
	client := pipeClient(t, srv)
	ctx := context.Background()
	query := [][]byte{enc("a"), enc("x"), enc("d")}

	res, err := client.Intersect(ctx, query)
	if err != nil {
		t.Fatalf("Intersect: %v", err)
	}
	if len(res.Values) != 2 {
		t.Errorf("intersection = %d values, want 2", len(res.Values))
	}
	size, err := client.IntersectSize(ctx, query)
	if err != nil {
		t.Fatalf("IntersectSize: %v", err)
	}
	if size.IntersectionSize != 2 {
		t.Errorf("size = %d, want 2", size.IntersectionSize)
	}
	join, err := client.Join(ctx, query)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if len(join.Matches) != 2 {
		t.Errorf("join matches = %d, want 2", len(join.Matches))
	}
	js, err := client.JoinSize(ctx, [][]byte{enc("a")})
	if err != nil {
		t.Fatalf("JoinSize: %v", err)
	}
	if js.JoinSize != 2 {
		t.Errorf("join size = %d, want 2 (a appears twice)", js.JoinSize)
	}
}

// TestStandingServerShardedFallsBack runs a sharded session against a
// Standing server: table-level deltas cannot follow hash partitions, so
// the classic shard path must answer it.
func TestStandingServerShardedFallsBack(t *testing.T) {
	tbl := standingTable(t, "a", "b", "c", "d", "e", "f")
	srv := standingServer(tbl)
	cfg := core.Config{Group: group.TestGroup(), Shards: 2}
	client := NewClientConnFunc(cfg, pipeClient(t, srv).dial)

	res, err := client.Intersect(context.Background(), [][]byte{enc("b"), enc("e"), enc("x")})
	if err != nil {
		t.Fatalf("sharded Intersect: %v", err)
	}
	if len(res.Values) != 2 {
		t.Errorf("sharded intersection = %d values, want 2", len(res.Values))
	}
}

// TestStandingServerSubscriptionSurvivesChurnEnd: a delta over the
// churn bound ends the subscription with a clean SubEnd rather than an
// error, and the last result stays valid.
func TestStandingServerChurnEndsSubscription(t *testing.T) {
	tbl := standingTable(t, "a", "b", "c", "d")
	srv := standingServer(tbl)
	srv.DeltaChurnMax = 0.01 // any churn on a 4-value set exceeds this
	client := pipeClient(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	q, err := client.IntersectStanding(ctx, [][]byte{enc("a"), enc("b")})
	if err != nil {
		t.Fatalf("IntersectStanding: %v", err)
	}
	defer q.Close(ctx)
	tbl.MustInsert(reldb.String("zz"), reldb.String("over-bound"))
	if _, err := q.Await(ctx); !errors.Is(err, core.ErrSubscriptionEnded) {
		t.Fatalf("Await = %v, want ErrSubscriptionEnded", err)
	}
	if got := valueSet(q.Result()); !got["a"] || !got["b"] || len(got) != 2 {
		t.Errorf("retained result = %v", got)
	}
}

// TestStandingServerCacheDeltaUpgrade pairs the binding with the sender
// cache: a repeat one-shot query after a small mutation must hit the
// delta-upgrade path (one upgrade, zero rebuilds) and still answer
// correctly.
func TestStandingServerCacheDeltaUpgrade(t *testing.T) {
	tbl := standingTable(t, "a", "b", "c", "d")
	reg := obs.NewRegistry()
	srv := standingServer(tbl)
	srv.SetCache = core.NewSenderSetCache(1<<20, reg.Cache())
	srv.Obs = reg
	client := pipeClient(t, srv)
	ctx := context.Background()
	query := [][]byte{enc("a"), enc("x"), enc("zz")}

	if _, err := client.Intersect(ctx, query); err != nil {
		t.Fatalf("cold Intersect: %v", err)
	}
	tbl.MustInsert(reldb.String("zz"), reldb.String("new"))
	res, err := client.Intersect(ctx, query)
	if err != nil {
		t.Fatalf("warm Intersect: %v", err)
	}
	if got := valueSet(res); !got["a"] || !got["zz"] || len(got) != 2 {
		t.Fatalf("upgraded intersection = %v", got)
	}
	snap := reg.Cache().Snapshot()
	if snap.Upgrades != 1 || snap.Rebuilds != 0 {
		t.Errorf("cache upgrades/rebuilds = %d/%d, want 1/0", snap.Upgrades, snap.Rebuilds)
	}
}
