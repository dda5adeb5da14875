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

// ecEnc is the container of the encoding whose y is the given integer,
// with the x sign bit as given.
func ecEnc(y *big.Int, sign bool) *big.Int {
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

// ecTorsion returns the eight points of the torsion subgroup, found as
// ℓ·P over points decoded from small y (which carry a random torsion
// component), and the container of a small y on no curve point.
func ecTorsion(t *testing.T) (torsion []ec25519.Point, offCurve *big.Int) {
	t.Helper()
	var l [32]byte
	ec25519.Order().FillBytes(l[:])
	seen := map[string]bool{}
	for y := int64(2); y < 200 && (len(torsion) < 8 || offCurve == nil); y++ {
		for _, sign := range []bool{false, true} {
			c := ecEnc(big.NewInt(y), sign)
			var buf [ec25519.EncodedLen]byte
			c.FillBytes(buf[:])
			pt, err := ec25519.Decode(buf[:])
			if err != nil {
				if offCurve == nil {
					offCurve = c
				}
				continue
			}
			tp := pt.ScalarMult(&l)
			if !tp.IsSmallOrder() {
				t.Fatalf("ℓ·P is not a torsion point for y = %d", y)
			}
			if key := string(tp.Encode(nil)); !seen[key] {
				seen[key] = true
				torsion = append(torsion, tp)
			}
		}
	}
	if len(torsion) != 8 || offCurve == nil {
		t.Fatalf("found %d torsion points (want 8), off-curve y found: %v", len(torsion), offCurve != nil)
	}
	return torsion, offCurve
}

// ecNonMembers lists every way a container can fail to be an element of
// the curve backend: no container at all, out of range, a non-canonical
// y, a y on no curve point, the non-canonical x = -0, and each of the
// eight points of the torsion subgroup.
func ecNonMembers(t *testing.T) []nonMember {
	t.Helper()
	p := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	torsion, offCurve := ecTorsion(t)
	out := []nonMember{
		{"nil", nil},
		{"negative", big.NewInt(-1)},
		{"257 bits", new(big.Int).Lsh(big.NewInt(1), 256)},
		{"y = p (non-canonical)", ecEnc(p, false)},
		{"y=1 with x = -0 (non-canonical)", ecEnc(big.NewInt(1), true)},
		{"off curve", offCurve},
	}
	for _, tp := range torsion {
		out = append(out, nonMember{fmt.Sprintf("torsion point %x", tp.Encode(nil)), ecEncode(tp)})
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

// TestECApplyKillsTorsion checks that a key acts through its
// torsion-killing representative.  Contains accepts a mixed-order point
// P+T, so without it f_e(P+T) = e·P + e·T and a peer that sends both P
// and P+T would read e mod 8 off the reply.  For every torsion point T,
// several mapped P and keys of every residue mod 8: f_e(P+T) = f_e(P).
// Inversion, commutativity (on mixed-order inputs too) and the
// ScalarFromBig(e.Big()) round trip must hold for the keys the backend
// builds.
func TestECApplyKillsTorsion(t *testing.T) {
	g := EC25519()
	torsion, _ := ecTorsion(t)
	var keys []*Scalar
	for v := int64(1); v <= 8; v++ {
		e, err := g.ScalarFromBig(big.NewInt(v))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, e)
	}
	for i := 0; i < 4; i++ {
		e, err := g.RandomScalar(nil)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := g.InvertScalar(e)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, e, inv)
	}
	apply := func(e *Scalar, x *big.Int) *big.Int {
		t.Helper()
		y, err := g.Apply(e, x)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		return y
	}
	for i := 0; i < 4; i++ {
		u := sha512.Sum512([]byte(fmt.Sprintf("torsion input %d", i)))
		x := g.MapToElement(u[:])
		p, err := ecDecode(x)
		if err != nil {
			t.Fatal(err)
		}
		for ti, tp := range torsion {
			mixed := ecEncode(p.Add(tp))
			if !g.Contains(mixed) {
				t.Fatalf("P%d+T%d: Contains rejects a mixed-order point", i, ti)
			}
			for ki, e := range keys {
				want, got := apply(e, x), apply(e, mixed)
				if got.Cmp(want) != 0 {
					t.Errorf("P%d+T%d, key %d: f_e(P+T) = %x, want f_e(P) = %x", i, ti, ki, got, want)
				}
				back, err := g.ScalarFromBig(e.Big())
				if err != nil {
					t.Fatal(err)
				}
				if apply(back, mixed).Cmp(got) != 0 {
					t.Errorf("P%d+T%d, key %d: ScalarFromBig(e.Big()) acts differently from e", i, ti, ki)
				}
				inv, err := g.InvertScalar(e)
				if err != nil {
					t.Fatal(err)
				}
				if got := apply(inv, want); got.Cmp(x) != 0 {
					t.Errorf("P%d, key %d: f_{e⁻¹}(f_e(P)) ≠ P", i, ki)
				}
				other := keys[(ki+5)%len(keys)]
				if ab, ba := apply(e, apply(other, mixed)), apply(other, apply(e, mixed)); ab.Cmp(ba) != 0 {
					t.Errorf("P%d+T%d, keys %d, %d: f_a(f_b(x)) ≠ f_b(f_a(x))", i, ti, ki, (ki+5)%len(keys))
				}
			}
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
