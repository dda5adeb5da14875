package group

import (
	"crypto/sha512"
	"math/big"
	"testing"
)

// ecFixture is the group-level golden pair, recorded from the generic
// square-and-multiply implementation: the uniform bytes are
// SHA-512("minshare group golden"), the scalar is
// SHA-512("minshare group golden scalar") mod ℓ.  It pins h(v) and f_e
// as the protocols see them — big.Int containers of the wire bytes.
const (
	ecGoldenScalar  = "0b357e35d3cc98cbdbc86c44971b4bf8f162a91cda2de5433646c8dd94392a9b"
	ecGoldenElement = "d27930727d668cc8a6f694177b50a96620fad1f3a5823a2c7dc10e449f096ec9"
	ecGoldenApplied = "68463e54b1a8d77e04597136053ce111f7286ba9008016c26baf99f2b165c079"
)

func ecFixture(t testing.TB) (g *ECGroup, uniform []byte, e *Scalar, x *big.Int) {
	t.Helper()
	g = EC25519()
	u := sha512.Sum512([]byte("minshare group golden"))
	ev, _ := new(big.Int).SetString(ecGoldenScalar, 16)
	e, err := g.ScalarFromBig(ev)
	if err != nil {
		t.Fatalf("golden scalar: %v", err)
	}
	x, _ = new(big.Int).SetString(ecGoldenElement, 16)
	return g, u[:], e, x
}

func TestECGoldenMapToElementApply(t *testing.T) {
	g, uniform, e, x := ecFixture(t)
	if got := g.MapToElement(uniform); got.Cmp(x) != 0 {
		t.Fatalf("MapToElement = %x, want %x", got, x)
	}
	want, _ := new(big.Int).SetString(ecGoldenApplied, 16)
	got, err := g.Apply(e, x)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("Apply = %x, want %x", got, want)
	}
	if !g.Contains(x) || !g.Contains(got) {
		t.Fatalf("golden elements must be group members")
	}
}

// TestECContainsRejections: every membership check survives the
// value-typed decode path — range, canonical y, on-curve, -0, and the
// small-order points — in Contains and in Apply alike.
func TestECContainsRejections(t *testing.T) {
	g := EC25519()
	e, err := g.ScalarFromBig(big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	// container of the encoding whose y is the given integer, with the
	// x sign bit as given.
	enc := func(y *big.Int, sign bool) *big.Int {
		var le [32]byte
		y.FillBytes(le[:])
		for i, j := 0, 31; i < j; i, j = i+1, j-1 {
			le[i], le[j] = le[j], le[i]
		}
		if sign {
			le[31] |= 0x80
		}
		return new(big.Int).SetBytes(le[:])
	}
	p := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	var offCurve *big.Int
	for y := int64(2); y < 40 && offCurve == nil; y++ {
		if c := enc(big.NewInt(y), false); !g.Contains(c) {
			offCurve = c
		}
	}
	if offCurve == nil {
		t.Fatalf("no small off-curve y found")
	}
	for _, c := range []struct {
		name string
		x    *big.Int
	}{
		{"nil", nil},
		{"negative", big.NewInt(-1)},
		{"257 bits", new(big.Int).Lsh(big.NewInt(1), 256)},
		{"identity, y=1 (small order)", enc(big.NewInt(1), false)},
		{"order-2 point, y=-1 (small order)", enc(new(big.Int).Sub(p, big.NewInt(1)), false)},
		{"order-4 point, y=0 (small order)", enc(big.NewInt(0), false)},
		{"y = p (non-canonical)", enc(p, false)},
		{"y=1 with x = -0 (non-canonical)", enc(big.NewInt(1), true)},
		{"off curve", offCurve},
	} {
		if g.Contains(c.x) {
			t.Errorf("Contains accepted %s", c.name)
		}
		if _, err := g.Apply(e, c.x); err == nil {
			t.Errorf("Apply accepted %s", c.name)
		}
	}
}

// TestECAllocBudget keeps the per-element path allocation-free below
// the *big.Int it must return: the container and its words are the only
// two allocations of Apply and MapToElement, and Contains makes none.
// psibench reports the same quantity as group.apply.allocs_per_call.
func TestECAllocBudget(t *testing.T) {
	g, uniform, e, x := ecFixture(t)
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Apply", 2, func() { sinkInt, _ = g.Apply(e, x) }},
		{"MapToElement", 2, func() { sinkInt = g.MapToElement(uniform) }},
		{"Contains", 0, func() { sinkBool = g.Contains(x) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.max {
			t.Errorf("ECGroup.%s allocates %.0f times per call, budget %.0f", c.name, got, c.max)
		}
	}
}

var (
	sinkInt  *big.Int
	sinkBool bool
)

func BenchmarkECApply(b *testing.B) {
	g, _, e, x := ecFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt, _ = g.Apply(e, x)
	}
}

func BenchmarkECContains(b *testing.B) {
	g, _, _, x := ecFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = g.Contains(x)
	}
}

func BenchmarkECMapToElement(b *testing.B) {
	g, uniform, _, _ := ecFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt = g.MapToElement(uniform)
	}
}
