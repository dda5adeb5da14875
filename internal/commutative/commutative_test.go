package commutative

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"minshare/internal/group"
)

func testScheme(t testing.TB) *PowerFn {
	t.Helper()
	return NewPowerFn(group.TestGroup())
}

// qr recovers the concrete safe-prime group behind a scheme's backend so
// tests can sample random elements from it.
func qr(t testing.TB, s Scheme) *group.Group {
	t.Helper()
	g, ok := s.Backend().(*group.Group)
	if !ok {
		t.Fatalf("test scheme backend is %T, want *group.Group", s.Backend())
	}
	return g
}

// TestCommutativity checks Property 1 of Definition 2: f_e ∘ f_e' = f_e' ∘ f_e.
func TestCommutativity(t *testing.T) {
	s := testScheme(t)
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x, _ := qr(t, s).RandomElement(r)
		k1, _ := s.GenerateKey(r)
		k2, _ := s.GenerateKey(r)
		a1, err1 := s.Encrypt(k1, x)
		a12, err2 := s.Encrypt(k2, a1)
		b2, err3 := s.Encrypt(k2, x)
		b21, err4 := s.Encrypt(k1, b2)
		return err1 == nil && err2 == nil && err3 == nil && err4 == nil &&
			a12.Cmp(b21) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestBijectionExhaustive checks Property 2 on a small group exhaustively:
// every f_e is a bijection of QR(p).
func TestBijectionExhaustive(t *testing.T) {
	g := group.MustNew(big.NewInt(23)) // |QR(23)| = 11, q = 11
	s := NewPowerFn(g)
	var elems []*big.Int
	for x := int64(1); x < 23; x++ {
		if v := big.NewInt(x); g.Contains(v) {
			elems = append(elems, v)
		}
	}
	for e := int64(1); e < 11; e++ {
		k, err := s.KeyFromExponent(big.NewInt(e))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, x := range elems {
			y, err := s.Encrypt(k, x)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Contains(y) {
				t.Fatalf("f_%d(%v) = %v escaped the group", e, x, y)
			}
			if seen[y.String()] {
				t.Fatalf("f_%d is not injective: duplicate image %v", e, y)
			}
			seen[y.String()] = true
		}
		if len(seen) != len(elems) {
			t.Fatalf("f_%d image size %d, want %d", e, len(seen), len(elems))
		}
	}
}

// TestDecryptInverts checks Property 3: f_e^{-1}(f_e(x)) = x.
func TestDecryptInverts(t *testing.T) {
	s := testScheme(t)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		x, _ := qr(t, s).RandomElement(rng)
		k, _ := s.GenerateKey(rng)
		y, err := s.Encrypt(k, x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := s.Decrypt(k, y)
		if err != nil {
			t.Fatal(err)
		}
		if back.Cmp(x) != 0 {
			t.Fatalf("Decrypt(Encrypt(x)) = %v, want %v", back, x)
		}
	}
}

// TestEncryptDecryptOrderIrrelevant verifies the identity the equijoin
// protocol relies on (Section 4.1): R can strip its own layer from a
// doubly-encrypted value, f_eR^{-1}(f_e'S(f_eR(h))) = f_e'S(h).
func TestEncryptDecryptOrderIrrelevant(t *testing.T) {
	s := testScheme(t)
	rng := rand.New(rand.NewSource(3))
	x, _ := qr(t, s).RandomElement(rng)
	kR, _ := s.GenerateKey(rng)
	kS, _ := s.GenerateKey(rng)

	yR, _ := s.Encrypt(kR, x)
	ySR, _ := s.Encrypt(kS, yR)
	stripped, err := s.Decrypt(kR, ySR)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := s.Encrypt(kS, x)
	if stripped.Cmp(direct) != 0 {
		t.Fatal("f_eR^-1(f_eS(f_eR(x))) != f_eS(x)")
	}
}

func TestEncryptRejectsNonMembers(t *testing.T) {
	s := testScheme(t)
	k, _ := s.GenerateKey(rand.New(rand.NewSource(4)))
	bad := []*big.Int{nil, big.NewInt(0), big.NewInt(-5), qr(t, s).P()}
	for _, x := range bad {
		if _, err := s.Encrypt(k, x); !errors.Is(err, group.ErrNotInGroup) {
			t.Errorf("Encrypt(%v) error = %v, want ErrNotInGroup", x, err)
		}
		if _, err := s.Decrypt(k, x); !errors.Is(err, group.ErrNotInGroup) {
			t.Errorf("Decrypt(%v) error = %v, want ErrNotInGroup", x, err)
		}
	}
}

func TestNilKey(t *testing.T) {
	s := testScheme(t)
	x, _ := qr(t, s).RandomElement(rand.New(rand.NewSource(5)))
	if _, err := s.Encrypt(nil, x); !errors.Is(err, ErrNilKey) {
		t.Errorf("Encrypt(nil key) error = %v, want ErrNilKey", err)
	}
	if _, err := s.Decrypt(nil, x); !errors.Is(err, ErrNilKey) {
		t.Errorf("Decrypt(nil key) error = %v, want ErrNilKey", err)
	}
}

func TestKeyFromExponentValidation(t *testing.T) {
	s := testScheme(t)
	for _, e := range []*big.Int{nil, big.NewInt(0), big.NewInt(-1), qr(t, s).Q()} {
		if _, err := s.KeyFromExponent(e); err == nil {
			t.Errorf("KeyFromExponent(%v) accepted invalid exponent", e)
		}
	}
	k, err := s.KeyFromExponent(big.NewInt(12345))
	if err != nil {
		t.Fatal(err)
	}
	if k.Exponent().Int64() != 12345 {
		t.Error("Exponent() round trip failed")
	}
}

func TestCountingCounts(t *testing.T) {
	s := testScheme(t)
	c := NewCounting(s)
	rng := rand.New(rand.NewSource(6))
	k, _ := c.GenerateKey(rng)
	x, _ := qr(t, c).RandomElement(rng)
	for i := 0; i < 3; i++ {
		y, err := c.Encrypt(k, x)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decrypt(k, y); err != nil {
			t.Fatal(err)
		}
	}
	if c.Encrypts() != 3 || c.Decrypts() != 3 || c.Ops() != 6 {
		t.Errorf("counts = %d/%d/%d, want 3/3/6", c.Encrypts(), c.Decrypts(), c.Ops())
	}
	c.Reset()
	if c.Ops() != 0 {
		t.Error("Reset did not zero counters")
	}
}

func TestEncryptAllMatchesSequential(t *testing.T) {
	s := testScheme(t)
	rng := rand.New(rand.NewSource(7))
	k, _ := s.GenerateKey(rng)
	xs := make([]*big.Int, 37)
	for i := range xs {
		xs[i], _ = qr(t, s).RandomElement(rng)
	}
	for _, par := range []int{0, 1, 2, 4, 8} {
		got, err := EncryptAll(context.Background(), s, k, xs, par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i := range xs {
			want, _ := s.Encrypt(k, xs[i])
			if got[i].Cmp(want) != 0 {
				t.Fatalf("parallelism %d: element %d mismatch", par, i)
			}
		}
	}
}

func TestDecryptAllInvertsEncryptAll(t *testing.T) {
	s := testScheme(t)
	rng := rand.New(rand.NewSource(8))
	k, _ := s.GenerateKey(rng)
	xs := make([]*big.Int, 9)
	for i := range xs {
		xs[i], _ = qr(t, s).RandomElement(rng)
	}
	ys, err := EncryptAll(context.Background(), s, k, xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecryptAll(context.Background(), s, k, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if back[i].Cmp(xs[i]) != 0 {
			t.Fatalf("element %d did not round-trip", i)
		}
	}
}

func TestEncryptAllPropagatesErrors(t *testing.T) {
	s := testScheme(t)
	rng := rand.New(rand.NewSource(9))
	k, _ := s.GenerateKey(rng)
	xs := make([]*big.Int, 20)
	for i := range xs {
		xs[i], _ = qr(t, s).RandomElement(rng)
	}
	xs[13] = big.NewInt(0) // not a group member
	for _, par := range []int{1, 4} {
		if _, err := EncryptAll(context.Background(), s, k, xs, par); err == nil {
			t.Errorf("parallelism %d: error not propagated", par)
		}
	}
}

func TestEncryptAllAllFailures(t *testing.T) {
	// Every element invalid: the feeder must not deadlock when all
	// workers exit early, and whichever worker fails first, the error
	// names the first bad element and wraps group.ErrNotInGroup (core
	// reports both to the peer).
	s := testScheme(t)
	k, _ := s.GenerateKey(rand.New(rand.NewSource(10)))
	xs := make([]*big.Int, 64)
	for i := range xs {
		xs[i] = big.NewInt(0)
	}
	for rep := 0; rep < 50; rep++ {
		_, err := EncryptAllAt(context.Background(), s, k, xs, 4, 100)
		if !errors.Is(err, group.ErrNotInGroup) || !strings.Contains(err.Error(), "element 100:") {
			t.Fatalf("err = %v, want ErrNotInGroup at element 100", err)
		}
	}
}

func TestEncryptAllCancelled(t *testing.T) {
	s := testScheme(t)
	rng := rand.New(rand.NewSource(11))
	k, _ := s.GenerateKey(rng)
	xs := make([]*big.Int, 50)
	for i := range xs {
		xs[i], _ = qr(t, s).RandomElement(rng)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EncryptAll(ctx, s, k, xs, 2); err == nil {
		t.Error("cancelled context not honoured")
	}
	if _, err := EncryptAll(ctx, s, k, xs, 1); err == nil {
		t.Error("cancelled context not honoured sequentially")
	}
}

func TestEncryptAllEmpty(t *testing.T) {
	s := testScheme(t)
	k, _ := s.GenerateKey(rand.New(rand.NewSource(12)))
	out, err := EncryptAll(context.Background(), s, k, nil, 4)
	if err != nil || len(out) != 0 {
		t.Errorf("empty input: out=%v err=%v", out, err)
	}
}
