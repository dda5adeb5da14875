package commutative

import (
	"context"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

func streamTestVector(t testing.TB, s *PowerFn, n int, seed int64) []*big.Int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*big.Int, n)
	for i := range xs {
		var err error
		if xs[i], err = qr(t, s).RandomElement(rng); err != nil {
			t.Fatal(err)
		}
	}
	return xs
}

func TestEncryptStreamMatchesEncryptAll(t *testing.T) {
	s := testScheme(t)
	rng := rand.New(rand.NewSource(2))
	k, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := streamTestVector(t, s, 17, 3)
	want, err := EncryptAll(context.Background(), s, k, xs, 2)
	if err != nil {
		t.Fatal(err)
	}

	for _, chunkSize := range []int{0, 1, 4, 16, 17, 100} {
		var got []*big.Int
		chunks := 0
		for c := range EncryptStream(context.Background(), s, k, xs, chunkSize, 2) {
			if c.Err != nil {
				t.Fatalf("chunkSize=%d: chunk error: %v", chunkSize, c.Err)
			}
			if c.Off != len(got) {
				t.Fatalf("chunkSize=%d: chunk at offset %d, want %d (out of order)", chunkSize, c.Off, len(got))
			}
			got = append(got, c.Elems...)
			chunks++
		}
		if len(got) != len(want) {
			t.Fatalf("chunkSize=%d: got %d elements, want %d", chunkSize, len(got), len(want))
		}
		for i := range want {
			if got[i].Cmp(want[i]) != 0 {
				t.Fatalf("chunkSize=%d: element %d differs from EncryptAll", chunkSize, i)
			}
		}
		if chunkSize >= 1 && chunkSize <= len(xs) {
			wantChunks := (len(xs) + chunkSize - 1) / chunkSize
			if chunks != wantChunks {
				t.Errorf("chunkSize=%d: %d chunks, want %d", chunkSize, chunks, wantChunks)
			}
		}
	}
}

func TestEncryptStreamEmptyVector(t *testing.T) {
	s := testScheme(t)
	rng := rand.New(rand.NewSource(6))
	k, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	ch := EncryptStream(context.Background(), s, k, nil, 4, 2)
	if c, ok := <-ch; ok {
		t.Fatalf("empty vector emitted a chunk: %+v", c)
	}
}

func TestEncryptStreamErrorIsTerminal(t *testing.T) {
	s := testScheme(t)
	rng := rand.New(rand.NewSource(7))
	k, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := streamTestVector(t, s, 8, 8)
	xs[5] = big.NewInt(0) // not a group element: chunk 2 of 4 fails
	var chunks []Chunk
	for c := range EncryptStream(context.Background(), s, k, xs, 2, 1) {
		chunks = append(chunks, c)
	}
	last := chunks[len(chunks)-1]
	if last.Err == nil {
		t.Fatal("stream over a bad element completed without error")
	}
	if last.Off != 4 {
		t.Errorf("error chunk at offset %d, want 4", last.Off)
	}
	for _, c := range chunks[:len(chunks)-1] {
		if c.Err != nil {
			t.Error("error chunk was not the last chunk")
		}
	}
}

func TestEncryptStreamCancelDoesNotLeak(t *testing.T) {
	s := testScheme(t)
	rng := rand.New(rand.NewSource(9))
	k, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := streamTestVector(t, s, 32, 10)
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		ch := EncryptStream(ctx, s, k, xs, 2, 1)
		<-ch // take one chunk, then walk away
		cancel()
	}
	// The producer goroutines must observe the cancellation and exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines grew from %d to %d after cancelled streams", before, n)
	}
}

// TestDecryptConcurrentSharedKey exercises the lazily cached decryption
// inverse from many goroutines; run under -race it proves the cache is
// safe for the concurrent per-chunk decrypts the core pipeline issues.
func TestDecryptConcurrentSharedKey(t *testing.T) {
	s := testScheme(t)
	rng := rand.New(rand.NewSource(11))
	k, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := streamTestVector(t, s, 8, 12)
	ys, err := EncryptAll(context.Background(), s, k, xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, y := range ys {
				x, err := s.Decrypt(k, y)
				if err != nil {
					t.Error(err)
					return
				}
				if x.Cmp(xs[i]) != 0 {
					t.Errorf("concurrent decrypt of element %d wrong", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
