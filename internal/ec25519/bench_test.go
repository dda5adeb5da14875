package ec25519

import (
	"crypto/sha512"
	"testing"
)

// Per-primitive micro-benchmarks (`make bench-ec`).  Together they
// price one element of the protocol: h(v) is MapToPoint + Encode, and
// f_e is Decode + IsSmallOrder + ScalarMult + Encode.  Sinks are
// package-level so the compiler keeps the measured calls.
var (
	sinkFe    fe
	sinkBool  bool
	sinkPoint Point
	sinkBytes []byte
)

func benchPoint() (Point, [HashLen]byte, [32]byte) {
	seed := sha512.Sum512([]byte("ec25519 bench"))
	var e [32]byte
	copy(e[:], seed[:32])
	e[0] &= 0x0f // below ℓ, as key scalars are
	return MapToPoint(seed[:]), seed, e
}

// The ladder's inner constants: one window of ScalarMult is 20
// multiplications, 16 squarings and some 40 additions/subtractions.
// Each op feeds its own result back in, so the loop measures latency,
// as the dependent chains of the point formulas do.
func BenchmarkFeMul(b *testing.B) {
	p, _, _ := benchPoint()
	v := p.x
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feMul(&v, &v, &p.y)
	}
	sinkFe = v
}

func BenchmarkFeSquare(b *testing.B) {
	p, _, _ := benchPoint()
	v := p.x
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feSquare(&v, &v)
	}
	sinkFe = v
}

func BenchmarkFeAdd(b *testing.B) {
	p, _, _ := benchPoint()
	v := p.x
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feAdd(&v, &v, &p.y)
	}
	sinkFe = v
}

func BenchmarkFeInvert(b *testing.B) {
	p, _, _ := benchPoint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feInvert(&sinkFe, &p.x)
	}
}

func BenchmarkFeSqrtRatio(b *testing.B) {
	p, _, _ := benchPoint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = feSqrtRatio(&sinkFe, &p.x, &p.y)
	}
}

func BenchmarkMapToPoint(b *testing.B) {
	_, seed, _ := benchPoint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPoint = MapToPoint(seed[:])
	}
}

func BenchmarkDecode(b *testing.B) {
	p, _, _ := benchPoint()
	enc := p.Encode(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPoint, _ = Decode(enc)
	}
}

func BenchmarkEncode(b *testing.B) {
	p, _, e := benchPoint()
	p = p.ScalarMult(&e) // Z ≠ 1, as after a real f_e
	buf := make([]byte, 0, EncodedLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBytes = p.Encode(buf)
	}
}

func BenchmarkScalarMult(b *testing.B) {
	p, _, e := benchPoint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPoint = p.ScalarMult(&e)
	}
}
