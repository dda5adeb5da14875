package party

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"minshare/internal/core"
	"minshare/internal/group"
	"minshare/internal/leakage"
	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

func testServer(policy Policy) *Server {
	values := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	recs := make([]core.JoinRecord, len(values))
	for i, v := range values {
		recs[i] = core.JoinRecord{Value: v, Ext: append([]byte("ext-"), v...)}
	}
	return &Server{
		Config:   core.Config{Group: group.TestGroup()},
		Values:   values,
		Records:  recs,
		Multiset: [][]byte{[]byte("a"), []byte("a"), []byte("b")},
		Policy:   policy,
	}
}

// pipeClient builds a client whose every dial spawns a fresh pipe served
// by srv on the other end.
func pipeClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	return NewClientConnFunc(core.Config{Group: group.TestGroup()}, pipeDialer(t, srv))
}

// pipeDialer returns the dial function behind pipeClient.  A session
// can outlive the test that dialled it — a standing query ends when the
// test cancels its context on the way out — and t.Logf after the test
// has completed panics, so server errors are logged only while the test
// is still running.
func pipeDialer(t *testing.T, srv *Server) func(context.Context) (transport.Conn, error) {
	var mu sync.Mutex
	finished := false
	t.Cleanup(func() {
		mu.Lock()
		finished = true
		mu.Unlock()
	})
	return func(ctx context.Context) (transport.Conn, error) {
		cConn, sConn := transport.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			defer sConn.Close()
			if err := srv.HandleConn(ctx, "test-peer", sConn); err != nil {
				mu.Lock()
				defer mu.Unlock()
				if !finished {
					t.Logf("server: %v", err)
				}
			}
		}()
		return &settledConn{Conn: cConn, served: served}, nil
	}
}

// settledConn makes closing the client end wait for the server's
// handler to return.  The server ends its obs session, charges the
// peer's budget and writes its audit entry after a session's last frame
// is out — that is, after the client already has its answer — so with a
// plain pipe a test asserting on any of those races the handler's tail.
type settledConn struct {
	transport.Conn
	served <-chan struct{}
}

func (c *settledConn) Close() error {
	err := c.Conn.Close()
	<-c.served
	return err
}

func TestServerAnswersAllProtocols(t *testing.T) {
	srv := testServer(Policy{})
	client := pipeClient(t, srv)
	ctx := context.Background()
	query := [][]byte{[]byte("b"), []byte("x"), []byte("d")}

	res, err := client.Intersect(ctx, query)
	if err != nil {
		t.Fatalf("Intersect: %v", err)
	}
	if len(res.Values) != 2 {
		t.Errorf("intersection = %d values", len(res.Values))
	}

	size, err := client.IntersectSize(ctx, query)
	if err != nil {
		t.Fatalf("IntersectSize: %v", err)
	}
	if size.IntersectionSize != 2 {
		t.Errorf("size = %d", size.IntersectionSize)
	}

	join, err := client.Join(ctx, query)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if len(join.Matches) != 2 {
		t.Errorf("join matches = %d", len(join.Matches))
	}
	for _, m := range join.Matches {
		if want := "ext-" + string(m.Value); string(m.Ext) != want {
			t.Errorf("ext = %q, want %q", m.Ext, want)
		}
	}

	js, err := client.JoinSize(ctx, [][]byte{[]byte("a"), []byte("b"), []byte("b")})
	if err != nil {
		t.Fatalf("JoinSize: %v", err)
	}
	if js.JoinSize != 1*2+2*1 { // a: 1×2, b: 2×1
		t.Errorf("join size = %d, want 4", js.JoinSize)
	}
}

func TestServerOverTCP(t *testing.T) {
	srv := testServer(Policy{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, ln)
	}()

	client := NewClient(ln.Addr().String(), core.Config{Group: group.TestGroup()})
	res, err := client.Intersect(ctx, [][]byte{[]byte("a"), []byte("zz")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || string(res.Values[0]) != "a" {
		t.Errorf("result %v", res.Values)
	}
	// A second session on a fresh connection also works.
	size, err := client.IntersectSize(ctx, [][]byte{[]byte("c")})
	if err != nil {
		t.Fatal(err)
	}
	if size.IntersectionSize != 1 {
		t.Errorf("size = %d", size.IntersectionSize)
	}
	cancel()
	<-done
}

func TestPolicyProtocolRestriction(t *testing.T) {
	srv := testServer(Policy{AllowedProtocols: []wire.Protocol{wire.ProtoIntersectionSize}})
	client := pipeClient(t, srv)
	ctx := context.Background()

	if _, err := client.IntersectSize(ctx, [][]byte{[]byte("a")}); err != nil {
		t.Fatalf("allowed protocol rejected: %v", err)
	}
	_, err := client.Intersect(ctx, [][]byte{[]byte("a")})
	if err == nil {
		t.Fatal("disallowed protocol accepted")
	}
	if !errors.Is(err, core.ErrPeerFailure) {
		t.Errorf("client error = %v, want peer failure carrying policy text", err)
	}
	if !strings.Contains(err.Error(), "not allowed") {
		t.Errorf("error text %q lacks reason", err)
	}
}

func TestPolicySizeBounds(t *testing.T) {
	srv := testServer(Policy{MinPeerSetSize: 2, MaxPeerSetSize: 3})
	client := pipeClient(t, srv)
	ctx := context.Background()

	if _, err := client.Intersect(ctx, [][]byte{[]byte("a")}); err == nil {
		t.Error("tiny peer set accepted")
	}
	if _, err := client.Intersect(ctx, [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}); err == nil {
		t.Error("huge peer set accepted")
	}
	if _, err := client.Intersect(ctx, [][]byte{[]byte("a"), []byte("b")}); err != nil {
		t.Errorf("in-bounds set rejected: %v", err)
	}
}

func TestPolicyQueryBudget(t *testing.T) {
	srv := testServer(Policy{MaxQueriesPerPeer: 2})
	client := pipeClient(t, srv)
	ctx := context.Background()
	q := [][]byte{[]byte("a")}

	for i := 0; i < 2; i++ {
		if _, err := client.IntersectSize(ctx, q); err != nil {
			t.Fatalf("query %d rejected: %v", i, err)
		}
	}
	if _, err := client.IntersectSize(ctx, q); err == nil {
		t.Fatal("budget not enforced")
	}
}

func TestServerWithoutJoinRecords(t *testing.T) {
	srv := testServer(Policy{})
	srv.Records = nil
	client := pipeClient(t, srv)
	_, err := client.Join(context.Background(), [][]byte{[]byte("a")})
	if err == nil {
		t.Fatal("join answered without records")
	}
}

func TestAuditorIntegration(t *testing.T) {
	srv := testServer(Policy{})
	srv.Auditor = leakage.NewAuditor(leakage.AuditPolicy{MaxQueries: 1, MaxOverlapFraction: 1})
	client := pipeClient(t, srv)
	ctx := context.Background()

	if _, err := client.IntersectSize(ctx, [][]byte{[]byte("a")}); err != nil {
		t.Fatalf("first query: %v", err)
	}
	if _, err := client.IntersectSize(ctx, [][]byte{[]byte("b")}); err == nil {
		t.Fatal("auditor budget not enforced")
	}
	trail := srv.Auditor.Trail()
	if len(trail) != 1 || trail[0].Protocol != "intersection-size" {
		t.Errorf("audit trail = %+v", trail)
	}
}

func TestServerRejectsGarbageFirstFrame(t *testing.T) {
	srv := testServer(Policy{})
	cConn, sConn := transport.Pipe()
	defer cConn.Close()
	ctx := context.Background()
	done := make(chan error, 1)
	go func() { done <- srv.HandleConn(ctx, "p", sConn) }()
	if err := cConn.Send(ctx, []byte{0xFF, 0x00}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("garbage first frame accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := testServer(Policy{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx, ln)

	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			client := NewClient(ln.Addr().String(), core.Config{Group: group.TestGroup()})
			res, err := client.Intersect(ctx, [][]byte{[]byte("a"), []byte(fmt.Sprintf("nope-%d", i))})
			if err == nil && len(res.Values) != 1 {
				err = fmt.Errorf("client %d got %d values", i, len(res.Values))
			}
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestServerObservability: with an obs registry attached, every answered
// session lands in the registry with full counters, the summary line is
// logged, and the audit trail carries the observed stats.
func TestServerObservability(t *testing.T) {
	srv := testServer(Policy{})
	srv.Obs = obs.NewRegistry()
	srv.Auditor = leakage.NewAuditor(leakage.AuditPolicy{MaxOverlapFraction: 1})
	var logLines []string
	srv.Logf = func(format string, args ...any) {
		logLines = append(logLines, fmt.Sprintf(format, args...))
	}
	client := pipeClient(t, srv)
	ctx := context.Background()

	if _, err := client.Intersect(ctx, [][]byte{[]byte("b"), []byte("x")}); err != nil {
		t.Fatalf("Intersect: %v", err)
	}
	if _, err := client.IntersectSize(ctx, [][]byte{[]byte("a")}); err != nil {
		t.Fatalf("IntersectSize: %v", err)
	}

	snap := srv.Obs.Snapshot()
	if snap.SessionsFinished != 2 || snap.SessionsFailed != 0 || snap.SessionsActive != 0 {
		t.Fatalf("sessions = %d finished / %d failed / %d active, want 2/0/0",
			snap.SessionsFinished, snap.SessionsFailed, snap.SessionsActive)
	}
	// 2 intersection-family runs against a 4-value server set with peer
	// sets of 2 and 1: the server performs (nS + nR) exponentiations per
	// run = (4+2) + (4+1).
	if got := snap.Global.ModExps(); got != 11 {
		t.Errorf("global modexps = %d, want 11", got)
	}
	first := snap.Recent[0]
	if first.Info.Protocol != "intersection" || first.Info.Role != "sender" ||
		first.Info.Peer != "test-peer" || first.Info.LocalSetSize != 4 || first.Info.PeerSetSize != 2 {
		t.Errorf("session info = %+v", first.Info)
	}
	if first.Counters.FramesSent != 3 || first.Counters.FramesRecv != 2 {
		t.Errorf("sender frames = %d sent / %d recv, want 3/2",
			first.Counters.FramesSent, first.Counters.FramesRecv)
	}
	if len(first.Spans) == 0 {
		t.Error("session has no phase spans")
	}

	var summary string
	for _, l := range logLines {
		if strings.Contains(l, "outcome=\"ok\"") {
			summary = l
			break
		}
	}
	if summary == "" || !strings.Contains(summary, "modexp=") || !strings.Contains(summary, "spans=") {
		t.Errorf("no per-session summary in log: %q", logLines)
	}

	trail := srv.Auditor.Trail()
	if len(trail) != 2 {
		t.Fatalf("audit trail has %d entries, want 2", len(trail))
	}
	if trail[0].Stats.Bytes != first.Counters.TotalWireBytes() || trail[0].Stats.Bytes == 0 {
		t.Errorf("audit stats bytes = %d, want %d", trail[0].Stats.Bytes, first.Counters.TotalWireBytes())
	}
	if trail[0].Stats.Duration <= 0 || trail[0].Stats.Spans == "" {
		t.Errorf("audit stats incomplete: %+v", trail[0].Stats)
	}
}

// TestServerObservabilityRecordsFailures: a refused protocol still ends
// its obs session with the failure outcome.
func TestServerObservabilityRecordsFailures(t *testing.T) {
	srv := testServer(Policy{})
	srv.Records = nil // disable equijoin
	srv.Obs = obs.NewRegistry()
	client := pipeClient(t, srv)

	if _, err := client.Join(context.Background(), [][]byte{[]byte("a")}); err == nil {
		t.Fatal("Join succeeded against a server without records")
	}
	snap := srv.Obs.Snapshot()
	if snap.SessionsFinished != 1 || snap.SessionsFailed != 1 {
		t.Errorf("sessions = %d finished / %d failed, want 1/1", snap.SessionsFinished, snap.SessionsFailed)
	}
	if len(snap.Recent) != 1 || snap.Recent[0].Outcome == "ok" || snap.Recent[0].Outcome == "" {
		t.Errorf("recent = %+v", snap.Recent)
	}
}
