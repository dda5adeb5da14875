package minshare

// Full-stack integration tests: CSV-loaded tables, the party server over
// real TCP and TLS, and every protocol exercised by a remote client.

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"minshare/internal/core"
	"minshare/internal/group"
	"minshare/internal/leakage"
	"minshare/internal/party"
	"minshare/internal/reldb"
	"minshare/internal/transport"
)

const ordersCSV = `cust:string,item:string,amount:int
ann,widget,120
ann,sprocket,75
bob,gizmo,300
eve,contraband,9999
`

func TestIntegrationServerFromCSV(t *testing.T) {
	// Enterprise S: load its table from CSV and serve it.
	table, err := reldb.ReadCSV("orders", strings.NewReader(ordersCSV))
	if err != nil {
		t.Fatal(err)
	}
	values, err := table.DistinctValues("cust")
	if err != nil {
		t.Fatal(err)
	}
	multiset, err := table.ColumnValues("cust")
	if err != nil {
		t.Fatal(err)
	}
	joinValues, exts, err := table.ExtPayloads("cust")
	if err != nil {
		t.Fatal(err)
	}
	records := make([]core.JoinRecord, len(joinValues))
	for i := range joinValues {
		records[i] = core.JoinRecord{Value: joinValues[i], Ext: exts[i]}
	}

	srv := &party.Server{
		Config:   core.Config{Group: group.TestGroup()},
		Values:   values,
		Records:  records,
		Multiset: multiset,
		Auditor:  leakage.NewAuditor(leakage.AuditPolicy{MaxOverlapFraction: 1}),
	}
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

	// Enterprise R: its customer list, queried over TCP.
	client := party.NewClient(ln.Addr().String(), core.Config{Group: group.TestGroup()})
	rQuery := [][]byte{
		reldb.String("ann").Encode(),
		reldb.String("bob").Encode(),
		reldb.String("carol").Encode(),
	}

	// Intersection: shared customers.
	inter, err := client.Intersect(ctx, rQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(inter.Values) != 2 {
		t.Errorf("intersection = %d values, want 2 (ann, bob)", len(inter.Values))
	}

	// Equijoin: R reconstructs the joined rows.
	join, err := client.Join(ctx, rQuery)
	if err != nil {
		t.Fatal(err)
	}
	totalRows := 0
	for _, m := range join.Matches {
		rows, err := reldb.DecodeRows(m.Ext, table.Schema().NumColumns())
		if err != nil {
			t.Fatal(err)
		}
		totalRows += len(rows)
	}
	if totalRows != 3 { // ann×2 + bob×1
		t.Errorf("joined rows = %d, want 3", totalRows)
	}

	// Intersection size.
	size, err := client.IntersectSize(ctx, rQuery)
	if err != nil {
		t.Fatal(err)
	}
	if size.IntersectionSize != 2 {
		t.Errorf("intersection size = %d", size.IntersectionSize)
	}

	// Join size with R-side duplicates.
	js, err := client.JoinSize(ctx, [][]byte{
		reldb.String("ann").Encode(),
		reldb.String("ann").Encode(),
		reldb.String("bob").Encode(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if js.JoinSize != 2*2+1*1 { // ann: 2 R-dups × 2 S-rows; bob: 1×1
		t.Errorf("join size = %d, want 5", js.JoinSize)
	}

	// The audit trail recorded all four sessions.  A session's entry is
	// written after its last frame is out — after the client call has
	// returned — so look once Serve has waited for its handlers.
	cancel()
	ln.Close()
	<-done
	if got := len(srv.Auditor.Trail()); got != 4 {
		t.Errorf("audit trail has %d entries, want 4", got)
	}
}

// TestIntegrationAllGroupSizes smoke-tests the intersection protocol on
// every builtin modulus, catching size-dependent encoding bugs.
func TestIntegrationAllGroupSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, size := range group.BuiltinSizes() {
		size := size
		t.Run(group.MustBuiltin(size).String(), func(t *testing.T) {
			cfg := Config{Group: group.MustBuiltin(size)}
			res, _, err := Intersect(context.Background(), cfg,
				bs("x", "y", "z"), bs("y", "z", "w"))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Values) != 2 {
				t.Errorf("intersection = %d", len(res.Values))
			}
		})
	}
}

// TestIntegrationPartyOverTLS runs the party server behind a TLS
// listener with certificate pinning — the complete Figure 1 stack:
// database (reldb) + cryptographic protocol (core) + secure
// communication (TLS).
func TestIntegrationPartyOverTLS(t *testing.T) {
	serverCert, err := transport.GenerateSelfSignedCert([]string{"127.0.0.1"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := transport.PinnedPool(serverCert)
	if err != nil {
		t.Fatal(err)
	}

	srv := &party.Server{
		Config: core.Config{Group: group.TestGroup()},
		Values: [][]byte{[]byte("a"), []byte("b"), []byte("c")},
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := transport.NewTLSListener(raw, serverCert, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, ln)
	}()

	client := party.NewClientConnFunc(core.Config{Group: group.TestGroup()},
		func(ctx context.Context) (transport.Conn, error) {
			return transport.DialTLS(ctx, ln.Addr().String(), "127.0.0.1", pool, nil)
		})
	res, err := client.Intersect(ctx, [][]byte{[]byte("b"), []byte("zz")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || string(res.Values[0]) != "b" {
		t.Errorf("TLS intersection = %v", res.Values)
	}
	cancel()
	ln.Close()
	<-done
}
