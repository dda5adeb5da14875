package obs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterChainAggregates(t *testing.T) {
	root := NewCounters(nil)
	child := NewCounters(root)

	child.AddModExpEncrypts(3)
	child.AddModExpDecrypts(2)
	child.AddKeyGens(1)
	child.AddOracleHashes(7)
	child.AddPayloadEncrypts(4)
	child.AddPayloadDecrypts(2)
	child.AddFrameSent(100, 104)
	child.AddFrameRecv(50, 54)
	root.AddOracleHashes(1) // root-only traffic must not reach the child

	cs, rs := child.Snapshot(), root.Snapshot()
	if cs.ModExps() != 5 || rs.ModExps() != 5 {
		t.Errorf("modexps child/root = %d/%d, want 5/5", cs.ModExps(), rs.ModExps())
	}
	if cs.OracleHashes != 7 || rs.OracleHashes != 8 {
		t.Errorf("oracle hashes child/root = %d/%d, want 7/8", cs.OracleHashes, rs.OracleHashes)
	}
	if cs.FramesSent != 1 || cs.PayloadBytesSent != 100 || cs.WireBytesSent != 104 {
		t.Errorf("sent census = %d/%d/%d, want 1/100/104",
			cs.FramesSent, cs.PayloadBytesSent, cs.WireBytesSent)
	}
	if cs.TotalPayloadBytes() != 150 || cs.TotalWireBytes() != 158 {
		t.Errorf("totals = %d/%d, want 150/158", cs.TotalPayloadBytes(), cs.TotalWireBytes())
	}
	sum := cs.Add(rs)
	if sum.OracleHashes != 15 || sum.ModExps() != 10 {
		t.Errorf("Add: hashes=%d modexps=%d, want 15/10", sum.OracleHashes, sum.ModExps())
	}
}

func TestNilCountersAndSpansAreInert(t *testing.T) {
	var c *Counters
	if snap := c.Snapshot(); snap != (CounterSnapshot{}) {
		t.Errorf("nil snapshot = %+v, want zero", snap)
	}
	var sp *Span
	sp.End() // must not panic
	if child := sp.StartChild("x"); child != nil {
		t.Errorf("nil StartChild = %v, want nil", child)
	}
	// A context without a session yields nil spans everywhere.
	ctx := context.Background()
	if s := SessionFrom(ctx); s != nil {
		t.Errorf("SessionFrom(empty ctx) = %v", s)
	}
	if sp := StartSpan(ctx, "phase"); sp != nil {
		t.Errorf("StartSpan without session = %v, want nil", sp)
	}
	if got := WithSession(ctx, nil); got != ctx {
		t.Error("WithSession(nil) must return ctx unchanged")
	}
}

// TestDetachedPathAllocatesNothing pins the two per-operation costs every
// instrumented call site pays: a span on a context that carries no
// session, and one histogram record on an attached one.
func TestDetachedPathAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		sp := StartSpan(ctx, "phase")
		sp.End()
	}); n != 0 {
		t.Errorf("StartSpan/End without a session: %v allocs, want 0", n)
	}
	var lat Latencies
	h := lat.Hist(LatChunkPipeline)
	if n := testing.AllocsPerRun(100, func() { h.Record(time.Microsecond) }); n != 0 {
		t.Errorf("Histogram.Record: %v allocs, want 0", n)
	}
}

func TestSpanTreeAndRender(t *testing.T) {
	reg := NewRegistry()
	sess := reg.StartSession(SessionInfo{Protocol: "intersection", Role: "receiver"})
	ctx := WithSession(context.Background(), sess)

	a := StartSpan(ctx, "hash-to-group")
	time.Sleep(time.Millisecond)
	a.End()
	a.End() // idempotent
	b := StartSpan(ctx, "bulk-encrypt")
	c := b.StartChild("worker")
	_ = c // deliberately left open: the session End must freeze it
	snap := sess.End(nil)

	if len(snap.Spans) != 2 {
		t.Fatalf("got %d top-level spans, want 2", len(snap.Spans))
	}
	rendered := RenderSpans(snap.Spans)
	for _, want := range []string{"hash-to-group=", "bulk-encrypt=", "bulk-encrypt/worker="} {
		if !strings.Contains(rendered, want) {
			t.Errorf("RenderSpans = %q, missing %q", rendered, want)
		}
	}
	if snap.Spans[0].Duration < time.Millisecond {
		t.Errorf("span duration = %v, want >= 1ms", snap.Spans[0].Duration)
	}
	// The open child was frozen by End: a later snapshot must agree.
	later := sess.Snapshot()
	if later.Spans[1].Children[0].Duration != snap.Spans[1].Children[0].Duration {
		t.Error("open child span kept running after session End")
	}
}

func TestRegistryLifecycle(t *testing.T) {
	reg := NewRegistry()
	ok := reg.StartSession(SessionInfo{Protocol: "intersection", Role: "receiver", LocalSetSize: 3})
	bad := reg.StartSession(SessionInfo{Protocol: "equijoin", Role: "sender"})
	if ok.ID() == bad.ID() {
		t.Fatal("session ids not unique")
	}

	snap := reg.Snapshot()
	if snap.SessionsActive != 2 || snap.SessionsFinished != 0 {
		t.Fatalf("active/finished = %d/%d, want 2/0", snap.SessionsActive, snap.SessionsFinished)
	}

	ok.Counters().AddModExpEncrypts(4)
	okSnap := ok.End(nil)
	badSnap := bad.End(errors.New("peer vanished"))
	if okSnap.Outcome != "ok" || badSnap.Outcome != "peer vanished" {
		t.Errorf("outcomes = %q / %q", okSnap.Outcome, badSnap.Outcome)
	}

	snap = reg.Snapshot()
	if snap.SessionsActive != 0 || snap.SessionsFinished != 2 || snap.SessionsFailed != 1 {
		t.Errorf("active/finished/failed = %d/%d/%d, want 0/2/1",
			snap.SessionsActive, snap.SessionsFinished, snap.SessionsFailed)
	}
	if len(snap.Recent) != 2 {
		t.Errorf("recent ring holds %d, want 2", len(snap.Recent))
	}
	if snap.Global.ModExpEncrypts != 4 {
		t.Errorf("global modexp_encrypts = %d, want 4 (chained from session)", snap.Global.ModExpEncrypts)
	}

	// Double End must not corrupt the registry tallies.
	ok.End(nil)
	if snap := reg.Snapshot(); snap.SessionsFinished != 2 {
		t.Errorf("finished after double End = %d, want 2", snap.SessionsFinished)
	}
}

func TestRecentRingBounded(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < recentKeep+5; i++ {
		reg.StartSession(SessionInfo{Protocol: "intersection"}).End(nil)
	}
	snap := reg.Snapshot()
	if len(snap.Recent) != recentKeep {
		t.Errorf("recent ring holds %d, want %d", len(snap.Recent), recentKeep)
	}
	// The ring keeps the newest sessions.
	if got := snap.Recent[len(snap.Recent)-1].ID; got != uint64(recentKeep+5) {
		t.Errorf("newest recent id = %d, want %d", got, recentKeep+5)
	}
}

func TestHandlerTextAndJSON(t *testing.T) {
	reg := NewRegistry()
	sess := reg.StartSession(SessionInfo{Protocol: "intersection", Peer: "10.0.0.7:1234", Role: "sender"})
	sess.Counters().AddFrameSent(10, 14)
	sess.End(nil)

	h := reg.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default Content-Type = %q", ct)
	}
	for _, want := range []string{"sessions_finished 1", "wire_bytes_sent 14", "protocol=intersection", `peer="10.0.0.7:1234"`} {
		if !strings.Contains(body, want) {
			t.Errorf("text body missing %q:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("json Content-Type = %q", ct)
	}
	var snap RegistrySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if snap.SessionsFinished != 1 || snap.Global.WireBytesSent != 14 {
		t.Errorf("decoded snapshot = %+v", snap)
	}

	// Accept-header negotiation selects JSON too.
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/json")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Accept negotiation Content-Type = %q", ct)
	}
}

func TestDebugMuxRoutes(t *testing.T) {
	reg := NewRegistry()
	mux := reg.DebugMux()
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	reg := NewRegistry()
	reg.PublishExpvar("obs_test_registry")
	reg.PublishExpvar("obs_test_registry") // must not panic (expvar.Publish would)
}

func TestCountersConcurrent(t *testing.T) {
	root := NewCounters(nil)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			child := NewCounters(root)
			for j := 0; j < perWorker; j++ {
				child.AddModExpEncrypts(1)
				child.AddFrameSent(2, 3)
			}
		}()
	}
	wg.Wait()
	snap := root.Snapshot()
	if snap.ModExpEncrypts != workers*perWorker {
		t.Errorf("modexp_encrypts = %d, want %d", snap.ModExpEncrypts, workers*perWorker)
	}
	if snap.WireBytesSent != 3*workers*perWorker {
		t.Errorf("wire_bytes_sent = %d, want %d", snap.WireBytesSent, 3*workers*perWorker)
	}
}

// TestLifecycleCensus: lifecycle events land in the registry snapshot,
// render on /metrics in both encodings, and a nil receiver is inert.
func TestLifecycleCensus(t *testing.T) {
	reg := NewRegistry()
	lc := reg.Lifecycle()
	lc.AddAcceptRetry()
	lc.AddAcceptRetry()
	lc.AddSaturationReject()
	lc.AddHandshakeTimeout()
	lc.AddIdleTimeout()
	lc.AddSessionTimeout()
	lc.AddDrain()
	lc.AddDrainForced(3)
	lc.AddClientRetry()

	snap := reg.Snapshot().Lifecycle
	want := LifecycleSnapshot{
		AcceptRetries: 2, SaturationRejects: 1,
		HandshakeTimeouts: 1, IdleTimeouts: 1, SessionTimeouts: 1,
		Drains: 1, DrainForced: 1, DrainCancelled: 3, ClientRetries: 1,
	}
	if snap != want {
		t.Errorf("lifecycle snapshot = %+v, want %+v", snap, want)
	}

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, line := range []string{"accept_retries 2", "saturation_rejects 1", "idle_timeouts 1", "drain_cancelled_sessions 3", "client_retries 1"} {
		if !strings.Contains(body, line) {
			t.Errorf("text body missing %q:\n%s", line, body)
		}
	}

	rec = httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	var decoded RegistrySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded.Lifecycle != want {
		t.Errorf("JSON lifecycle = %+v, want %+v", decoded.Lifecycle, want)
	}

	// Nil registry / nil lifecycle: every probe is a no-op.
	var nilReg *Registry
	nilReg.Lifecycle().AddIdleTimeout()
	nilReg.Lifecycle().AddDrainForced(5)
	if got := nilReg.Lifecycle().Snapshot(); got != (LifecycleSnapshot{}) {
		t.Errorf("nil lifecycle snapshot = %+v", got)
	}
}

// TestLifecycleConcurrent exercises the census under parallel writers so
// the race target covers it.
func TestLifecycleConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	const workers, each = 8, 500
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				reg.Lifecycle().AddIdleTimeout()
				reg.Lifecycle().AddClientRetry()
			}
		}()
	}
	wg.Wait()
	snap := reg.Lifecycle().Snapshot()
	if snap.IdleTimeouts != workers*each || snap.ClientRetries != workers*each {
		t.Errorf("lifecycle = %+v, want %d each", snap, workers*each)
	}
}
