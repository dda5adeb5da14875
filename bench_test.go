package minshare

// Benchmark harness: one family per experiment id of DESIGN.md (E1-E10),
// plus the ablation benches for the design choices DESIGN.md calls out.
// `go test -bench=. -benchmem` regenerates the measured side of every
// table; cmd/experiments prints the paper-vs-model comparison around
// these numbers.

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"minshare/internal/circuit"
	"minshare/internal/core"
	"minshare/internal/costmodel"
	"minshare/internal/docshare"
	"minshare/internal/garble"
	"minshare/internal/group"
	"minshare/internal/kenc"
	"minshare/internal/medical"
	"minshare/internal/obs"
	"minshare/internal/oracle"
	"minshare/internal/ot"
	"minshare/internal/reldb"
	"minshare/internal/transport"
	"minshare/internal/yao"
)

// benchGroup is the modulus used by the protocol benchmarks.  The
// paper's parameter is 1024 bits; protocol benches use 512 to keep the
// suite's wall time reasonable while the dedicated C_e benches cover
// every modulus size including 1024 and 2048.
var benchGroup = group.MustBuiltin(group.Bits512)

func benchSets(n int) (vR, vS [][]byte) {
	common := make([][]byte, n/2)
	for i := range common {
		common[i] = []byte(fmt.Sprintf("common-%06d", i))
	}
	vR = append([][]byte{}, common...)
	vS = append([][]byte{}, common...)
	for i := 0; i < n-len(common); i++ {
		vR = append(vR, []byte(fmt.Sprintf("r-%06d", i)))
		vS = append(vS, []byte(fmt.Sprintf("s-%06d", i)))
	}
	return
}

// runPairBench runs one protocol pair over a pipe with a byte meter on
// the receiver endpoint and both endpoints attributed to obs sessions;
// it returns the meter and the combined (R+S) counter snapshot so
// benchmarks can report observed crypto-op counts next to wall time.
func runPairBench(b *testing.B, recvFn, sendFn func(ctx context.Context, conn transport.Conn) error) (*transport.Meter, obs.CounterSnapshot) {
	b.Helper()
	ctx := context.Background()
	connR, connS := transport.Pipe()
	defer connR.Close()
	meter := transport.NewMeter(connR)
	reg := obs.NewRegistry()
	sessR := reg.StartSession(obs.SessionInfo{Role: "receiver"})
	sessS := reg.StartSession(obs.SessionInfo{Role: "sender"})
	ch := make(chan error, 1)
	go func() {
		err := sendFn(obs.WithSession(ctx, sessS), connS)
		sessS.End(err)
		ch <- err
	}()
	rErr := recvFn(obs.WithSession(ctx, sessR), meter)
	sessR.End(rErr)
	if rErr != nil {
		b.Fatal(rErr)
	}
	if err := <-ch; err != nil {
		b.Fatal(err)
	}
	return meter, reg.Global().Snapshot()
}

// --- E1: §6.1 computation (full protocol wall time per set size) ---

func benchmarkIntersection(b *testing.B, n int) {
	vR, vS := benchSets(n)
	cfg := core.Config{Group: benchGroup}
	b.ReportMetric(float64(costmodel.IntersectionOps(n, n).Ce), "Ce-ops")
	var snap obs.CounterSnapshot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, snap = runPairBench(b,
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.IntersectionReceiver(ctx, cfg, conn, vR)
				return err
			},
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.IntersectionSender(ctx, cfg, conn, vS)
				return err
			})
	}
	b.ReportMetric(float64(snap.ModExps()), "modexp-ops")
}

func BenchmarkE1_Intersection_n32(b *testing.B)  { benchmarkIntersection(b, 32) }
func BenchmarkE1_Intersection_n128(b *testing.B) { benchmarkIntersection(b, 128) }

func benchmarkEquijoin(b *testing.B, n int) {
	vR, vS := benchSets(n)
	recs := make([]core.JoinRecord, len(vS))
	for i, v := range vS {
		recs[i] = core.JoinRecord{Value: v, Ext: []byte("payload for " + string(v))}
	}
	cfg := core.Config{Group: benchGroup}
	b.ReportMetric(float64(costmodel.JoinOps(n, n, n/2).Ce), "Ce-ops")
	var snap obs.CounterSnapshot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, snap = runPairBench(b,
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.EquijoinReceiver(ctx, cfg, conn, vR)
				return err
			},
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.EquijoinSender(ctx, cfg, conn, recs)
				return err
			})
	}
	b.ReportMetric(float64(snap.ModExps()), "modexp-ops")
}

func BenchmarkE1_Equijoin_n32(b *testing.B)  { benchmarkEquijoin(b, 32) }
func BenchmarkE1_Equijoin_n128(b *testing.B) { benchmarkEquijoin(b, 128) }

func BenchmarkE1_IntersectionSize_n64(b *testing.B) {
	vR, vS := benchSets(64)
	cfg := core.Config{Group: benchGroup}
	for i := 0; i < b.N; i++ {
		runPairBench(b,
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.IntersectionSizeReceiver(ctx, cfg, conn, vR)
				return err
			},
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.IntersectionSizeSender(ctx, cfg, conn, vS)
				return err
			})
	}
}

func BenchmarkE1_EquijoinSize_n64(b *testing.B) {
	vR, vS := benchSets(64)
	// Add duplicates so the multiset path is exercised.
	vR = append(vR, vR[:8]...)
	vS = append(vS, vS[:4]...)
	cfg := core.Config{Group: benchGroup}
	for i := 0; i < b.N; i++ {
		runPairBench(b,
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.EquijoinSizeReceiver(ctx, cfg, conn, vR)
				return err
			},
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.EquijoinSizeSender(ctx, cfg, conn, vS)
				return err
			})
	}
}

// --- E2: §6.1 communication (bytes per protocol run) ---

func BenchmarkE2_IntersectionBytes_n64(b *testing.B) {
	const n = 64
	vR, vS := benchSets(n)
	cfg := core.Config{Group: benchGroup}
	var bytes int64
	for i := 0; i < b.N; i++ {
		m, _ := runPairBench(b,
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.IntersectionReceiver(ctx, cfg, conn, vR)
				return err
			},
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.IntersectionSender(ctx, cfg, conn, vS)
				return err
			})
		bytes = m.TotalBytes()
	}
	b.ReportMetric(float64(bytes), "wire-bytes")
	b.ReportMetric(costmodel.IntersectionCommBits(n, n, benchGroup.Bits())/8, "formula-bytes")
}

// --- E3: §6.2.1 document sharing (one private pair comparison) ---

func BenchmarkE3_DocSharePair_100words(b *testing.B) {
	mk := func(prefix string) docshare.Document {
		ws := make([]string, 100)
		for i := range ws {
			if i < 30 {
				ws[i] = fmt.Sprintf("shared-%d", i)
			} else {
				ws[i] = fmt.Sprintf("%s-%d", prefix, i)
			}
		}
		return docshare.Document{ID: prefix, Words: ws}
	}
	docsR := []docshare.Document{mk("r")}
	docsS := []docshare.Document{mk("s")}
	cfg := core.Config{Group: benchGroup}
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		connR, connS := transport.Pipe()
		ch := make(chan error, 1)
		go func() { ch <- docshare.MatchSender(ctx, cfg, connS, docsS) }()
		if _, err := docshare.MatchReceiver(ctx, cfg, connR, docsR, docshare.DiceLike, 0.1); err != nil {
			b.Fatal(err)
		}
		if err := <-ch; err != nil {
			b.Fatal(err)
		}
		connR.Close()
	}
}

// --- E4: §6.2.2 medical study (full four-cell run) ---

func BenchmarkE4_MedicalStudy_n100(b *testing.B) {
	tR, tS := reldb.GenPeopleTables(100, 0.4, 0.6, 0.3, 5)
	cfg := core.Config{Group: benchGroup}
	for i := 0; i < b.N; i++ {
		if _, err := medical.RunStudy(context.Background(), cfg, cfg, cfg, tR, tS); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: Appendix A.1.2 circuit construction ---

func BenchmarkE5_BruteForceCircuit_w16_n16(b *testing.B) {
	var gates int
	for i := 0; i < b.N; i++ {
		c := circuit.BruteForceIntersection(16, 16, 16)
		gates = c.NumGates()
	}
	b.ReportMetric(float64(gates), "gates")
	b.ReportMetric(costmodel.BruteForceGates(16, 16), "model-gates")
}

func BenchmarkE5_Garble_w16_n8(b *testing.B) {
	c := circuit.BruteForceIntersection(16, 8, 8)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := garble.Garble(c, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: Appendix A.2 computation primitives (C_e and C_r per size) ---

func benchmarkCe(b *testing.B, size group.Size) {
	g := group.MustBuiltin(size)
	rng := rand.New(rand.NewSource(1))
	x, _ := g.RandomElement(rng)
	e, _ := g.RandomExponent(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Exp(x, e)
	}
}

func BenchmarkE6_Ce_512(b *testing.B)  { benchmarkCe(b, group.Bits512) }
func BenchmarkE6_Ce_768(b *testing.B)  { benchmarkCe(b, group.Bits768) }
func BenchmarkE6_Ce_1024(b *testing.B) { benchmarkCe(b, group.Bits1024) }
func BenchmarkE6_Ce_1536(b *testing.B) { benchmarkCe(b, group.Bits1536) }
func BenchmarkE6_Ce_2048(b *testing.B) { benchmarkCe(b, group.Bits2048) }

func BenchmarkE6_Cr_PRF(b *testing.B) {
	// One garbled-gate PRF evaluation (the C_r of Appendix A): garble a
	// 1-gate circuit once, then repeatedly evaluate it (2 PRF calls/op).
	cb := circuit.NewBuilder()
	in := cb.GarblerInputs(1)
	e := cb.EvaluatorInputs(1)
	cb.Output(cb.AND(in[0], e[0]))
	c := cb.MustBuild()
	gc, err := garble.Garble(c, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	gl, _ := gc.GarblerInputLabeled([]bool{true})
	f, _, _ := gc.EvaluatorInputLabeled(0)
	el := []garble.LabeledInput{f}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := garble.Evaluate(c, gc.Tables, gc.OutputPermutes, gl, el); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: Appendix A.2 communication — covered numerically by
// cmd/experiments; here the real OT transfer cost per input bit ---

func BenchmarkE7_OTPerInputBit(b *testing.B) {
	g := group.MustBuiltin(group.Bits256) // k1 ≈ 100-bit security → small group
	rng := rand.New(rand.NewSource(1))
	sender, err := ot.NewSender(g, rng)
	if err != nil {
		b.Fatal(err)
	}
	receiver, err := ot.NewReceiver(g, sender.PublicC(), rng)
	if err != nil {
		b.Fatal(err)
	}
	m0 := make([]byte, garble.LabelLen+1)
	m1 := make([]byte, garble.LabelLen+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := receiver.Choose(i%2 == 0)
		if err != nil {
			b.Fatal(err)
		}
		ct, err := sender.Transfer(ch.PK0, m0, m1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := receiver.Open(ch, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: §3.2.2 hashing ---

func BenchmarkE8_HashToGroup_1024(b *testing.B) {
	o := oracle.New(group.MustBuiltin(group.Bits1024))
	var buf [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf[0] = byte(i)
		buf[1] = byte(i >> 8)
		_ = o.Hash(buf[:])
	}
}

// --- E9: real garbled-circuit PSI vs our protocol ---

func BenchmarkE9_YaoPSI_n8_w16(b *testing.B) {
	sVals := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	rVals := []uint64{0, 1, 2, 3, 100, 101, 102, 103}
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		connG, connE := transport.Pipe()
		ch := make(chan error, 1)
		go func() {
			ch <- yao.RunGarbler(ctx, yao.Config{Group: group.MustBuiltin(group.Bits256), Width: 16}, connG, sVals)
		}()
		if _, err := yao.RunEvaluator(ctx, yao.Config{Group: group.MustBuiltin(group.Bits256), Width: 16}, connE, rVals); err != nil {
			b.Fatal(err)
		}
		if err := <-ch; err != nil {
			b.Fatal(err)
		}
		connG.Close()
	}
}

func BenchmarkE9_OursPSI_n8(b *testing.B) {
	benchmarkIntersection(b, 8)
}

// --- E10: §5.2 leakage path (multiset protocol with heavy duplicates) ---

func BenchmarkE10_JoinSizeDuplicates(b *testing.B) {
	var vR, vS [][]byte
	for i := 0; i < 16; i++ {
		for d := 0; d <= i%4; d++ {
			vR = append(vR, []byte(fmt.Sprintf("v-%d", i)))
		}
		for d := 0; d <= (i+1)%4; d++ {
			vS = append(vS, []byte(fmt.Sprintf("v-%d", i)))
		}
	}
	cfg := core.Config{Group: benchGroup}
	for i := 0; i < b.N; i++ {
		runPairBench(b,
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.EquijoinSizeReceiver(ctx, cfg, conn, vR)
				return err
			},
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.EquijoinSizeSender(ctx, cfg, conn, vS)
				return err
			})
	}
}

// --- Ablations (DESIGN.md §4) ---

// Ablation 1: hash-to-QR by squaring (ours) vs rejection sampling.
func BenchmarkAblation_HashSquare(b *testing.B) {
	BenchmarkE8_HashToGroup_1024(b)
}

func BenchmarkAblation_HashRejection(b *testing.B) {
	o := oracle.New(group.MustBuiltin(group.Bits1024))
	var buf [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf[0], buf[1] = byte(i), byte(i>>8)
		_ = o.HashRejection(buf[:])
	}
}

// Ablation 2: K multiplicative (perfect secrecy) vs hybrid (arbitrary payload).
func benchmarkKCipher(b *testing.B, c kenc.Cipher, payload int) {
	g := benchGroup
	kappa, _ := g.RandomElement(rand.New(rand.NewSource(1)))
	pt := make([]byte, payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct, err := c.Encrypt(kappa, pt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Decrypt(kappa, ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_KMultiplicative_32B(b *testing.B) {
	benchmarkKCipher(b, kenc.NewMultiplicative(benchGroup), 32)
}

func BenchmarkAblation_KHybrid_32B(b *testing.B) {
	benchmarkKCipher(b, kenc.NewHybrid(benchGroup), 32)
}

func BenchmarkAblation_KHybrid_4KiB(b *testing.B) {
	benchmarkKCipher(b, kenc.NewHybrid(benchGroup), 4096)
}

// Ablation 4: parallel encryption scaling (the paper's P).
func benchmarkParallelism(b *testing.B, p int) {
	vR, vS := benchSets(64)
	cfg := core.Config{Group: benchGroup, Parallelism: p}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPairBench(b,
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.IntersectionReceiver(ctx, cfg, conn, vR)
				return err
			},
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.IntersectionSender(ctx, cfg, conn, vS)
				return err
			})
	}
}

func BenchmarkAblation_Parallel_P1(b *testing.B) { benchmarkParallelism(b, 1) }
func BenchmarkAblation_Parallel_P4(b *testing.B) { benchmarkParallelism(b, 4) }

// Ablation 5: sorting cost vs encryption cost (the paper's
// nCe ≫ n·log n·Cs assumption).
func BenchmarkAblation_SortThousandElements(b *testing.B) {
	g := benchGroup
	rng := rand.New(rand.NewSource(1))
	elems := make([]*big.Int, 1000)
	for i := range elems {
		elems[i], _ = g.RandomElement(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := append([]*big.Int(nil), elems...)
		sort.Slice(cp, func(a, b int) bool { return cp[a].Cmp(cp[b]) < 0 })
	}
}

// BenchmarkE5_SortedCircuit builds the real sort-based intersection-size
// circuit (the appendix's ordered-array construction) at n=64.
func BenchmarkE5_SortedCircuit_w16_n64(b *testing.B) {
	var gates int
	for i := 0; i < b.N; i++ {
		gates = circuit.SortedIntersectionSize(16, 64, 64).NumGates()
	}
	b.ReportMetric(float64(gates), "gates")
	b.ReportMetric(costmodel.BruteForceGates(64, 16), "brute-model-gates")
}
