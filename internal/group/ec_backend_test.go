package group

import (
	"bytes"
	"crypto/sha512"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"minshare/internal/ec25519"
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

// nonMember is one input Backend.Contains must reject.
type nonMember struct {
	name string
	x    *big.Int
}

// ecNonMembers lists every way a container can fail to be an element of
// the curve backend: no container at all, out of range, a non-canonical
// y, a y on no curve point, the non-canonical x = -0, and each of the
// eight points of the torsion subgroup (found as ℓ·P over points decoded
// from small y, which carry a random torsion component).
func ecNonMembers(t *testing.T) []nonMember {
	t.Helper()
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
	out := []nonMember{
		{"nil", nil},
		{"negative", big.NewInt(-1)},
		{"257 bits", new(big.Int).Lsh(big.NewInt(1), 256)},
		{"y = p (non-canonical)", enc(p, false)},
		{"y=1 with x = -0 (non-canonical)", enc(big.NewInt(1), true)},
	}

	var l [32]byte
	ec25519.Order().FillBytes(l[:])
	torsion := map[string]bool{}
	offCurve := false
	for y := int64(2); y < 200 && (len(torsion) < 8 || !offCurve); y++ {
		for _, sign := range []bool{false, true} {
			c := enc(big.NewInt(y), sign)
			var buf [ec25519.EncodedLen]byte
			c.FillBytes(buf[:])
			pt, err := ec25519.Decode(buf[:])
			if err != nil {
				if !offCurve {
					offCurve = true
					out = append(out, nonMember{"off curve", c})
				}
				continue
			}
			tp := pt.ScalarMult(&l)
			if !tp.IsSmallOrder() {
				t.Fatalf("ℓ·P is not a torsion point for y = %d", y)
			}
			if key := string(tp.Encode(nil)); !torsion[key] {
				torsion[key] = true
				out = append(out, nonMember{fmt.Sprintf("torsion point %x", key), new(big.Int).SetBytes([]byte(key))})
			}
		}
	}
	if len(torsion) != 8 || !offCurve {
		t.Fatalf("found %d torsion points (want 8), off-curve y found: %v", len(torsion), offCurve)
	}
	return out
}

// qrNonMembers lists the ways an integer can fail to be an element of
// QR(p): no integer, outside [1, p-1], or a non-residue.
func qrNonMembers(g *Group) []nonMember {
	p := g.P()
	out := []nonMember{
		{"nil", nil},
		{"negative", big.NewInt(-4)},
		{"0", big.NewInt(0)},
		{"p", p},
		{"p + 4", new(big.Int).Add(p, big.NewInt(4))},
		{"p - 1 (non-residue)", new(big.Int).Sub(p, big.NewInt(1))},
	}
	for x := int64(2); len(out) < 10; x++ {
		if c := big.NewInt(x); big.Jacobi(c, p) == -1 {
			out = append(out, nonMember{fmt.Sprintf("non-residue %d", x), c})
		}
	}
	return out
}

// TestApplyRejectsWhatContainsRejects is the Backend contract package
// core leans on when it leaves a received vector's membership test to
// the encryption that consumes it: on every input Contains rejects,
// Apply returns no element and an error wrapping ErrNotInGroup.
func TestApplyRejectsWhatContainsRejects(t *testing.T) {
	for _, c := range []struct {
		b   Backend
		bad []nonMember
	}{
		{EC25519(), ecNonMembers(t)},
		{TestGroup(), qrNonMembers(TestGroup())},
	} {
		e, err := c.b.ScalarFromBig(big.NewInt(7))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range c.bad {
			if c.b.Contains(m.x) {
				t.Errorf("%s: Contains accepted %s", c.b.Name(), m.name)
			}
			if y, err := c.b.Apply(e, m.x); y != nil || !errors.Is(err, ErrNotInGroup) {
				t.Errorf("%s: Apply(%s) = %v, %v; want nil and ErrNotInGroup", c.b.Name(), m.name, y, err)
			}
		}
		// ... and only that.
		member := c.b.MapToElement(bytes.Repeat([]byte{0x42}, c.b.HashInputLen()))
		if _, err := c.b.Apply(e, member); err != nil || !c.b.Contains(member) {
			t.Errorf("%s: a mapped element is rejected (Apply: %v)", c.b.Name(), err)
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
