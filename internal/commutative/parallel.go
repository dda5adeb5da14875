package commutative

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"sync"
)

// EncryptAll encrypts every element of xs under key k using up to
// parallelism worker goroutines and returns the results in input order.
//
// The paper's application estimates (Section 6.2) assume "P processors
// that we can utilize in parallel ... a default value of P = 10": bulk
// exponentiation is embarrassingly parallel, and EncryptAll is that
// worker pool.  parallelism <= 0 selects GOMAXPROCS.
func EncryptAll(ctx context.Context, s Scheme, k *Key, xs []*big.Int, parallelism int) ([]*big.Int, error) {
	return EncryptAllAt(ctx, s, k, xs, parallelism, 0)
}

// EncryptAllAt is EncryptAll for a slice that starts at index base of a
// larger vector: errors name the global index base+i, so a mid-stream
// failure in chunk 3 of a streamed operation points at the right
// element of V, not at the chunk-local offset.
func EncryptAllAt(ctx context.Context, s Scheme, k *Key, xs []*big.Int, parallelism, base int) ([]*big.Int, error) {
	return mapAll(ctx, xs, parallelism, base, func(x *big.Int) (*big.Int, error) {
		return s.Encrypt(k, x)
	})
}

// DecryptAll is the decryption counterpart of EncryptAll.
func DecryptAll(ctx context.Context, s Scheme, k *Key, ys []*big.Int, parallelism int) ([]*big.Int, error) {
	return DecryptAllAt(ctx, s, k, ys, parallelism, 0)
}

// DecryptAllAt is the decryption counterpart of EncryptAllAt.
func DecryptAllAt(ctx context.Context, s Scheme, k *Key, ys []*big.Int, parallelism, base int) ([]*big.Int, error) {
	return mapAll(ctx, ys, parallelism, base, func(y *big.Int) (*big.Int, error) {
		return s.Decrypt(k, y)
	})
}

// mapAll applies f to every element of xs with up to parallelism
// concurrent workers, preserving input order in the result.  base is
// the index of xs[0] within the caller's full vector; error messages
// report base-relative ("global") element indices.
//
// The parallelism contract (pinned by TestMapAllDefaultsToGOMAXPROCS):
// parallelism <= 0 selects runtime.GOMAXPROCS(0) at call time — the
// paper's "P processors that we can utilize in parallel" default — and
// any requested value is capped at len(xs), since a worker per element
// is the most the feeder can ever keep busy.  Exactly min(parallelism,
// len(xs)) workers are started; each holds at most one element
// in flight.
func mapAll(ctx context.Context, xs []*big.Int, parallelism, base int, f func(*big.Int) (*big.Int, error)) ([]*big.Int, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(xs) {
		parallelism = len(xs)
	}
	out := make([]*big.Int, len(xs))
	if len(xs) == 0 {
		return out, nil
	}
	if parallelism <= 1 {
		for i, x := range xs {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("commutative: bulk operation cancelled: %w", err)
			}
			y, err := f(x)
			if err != nil {
				return nil, fmt.Errorf("commutative: element %d: %w", base+i, err)
			}
			out[i] = y
		}
		return out, nil
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx int
		next     = make(chan int)
		quit     = make(chan struct{})
	)
	// fail records the failure at element i.  The feeder hands indices
	// out in order and a worker always finishes the element it holds, so
	// keeping the smallest failing index makes the reported element the
	// first bad one of xs, whichever worker lost the race — core reports
	// it to the peer as the offending element of a received vector.
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			close(quit)
		}
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
	}

	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				// Observe cancellation between elements, exactly like the
				// serial path: a cancelled bulk operation must stop after
				// at most one in-flight exponentiation per worker, not
				// grind through whatever the feeder already queued.
				if err := ctx.Err(); err != nil {
					fail(i, fmt.Errorf("commutative: bulk operation cancelled: %w", err))
					return
				}
				y, err := f(xs[i])
				if err != nil {
					fail(i, fmt.Errorf("commutative: element %d: %w", base+i, err))
					return
				}
				out[i] = y
			}
		}()
	}

feed:
	for i := range xs {
		// Cancellation and failure take priority over handing out more
		// work: the three-way select below picks randomly among ready
		// cases, so without this check a cancelled feed could keep
		// dispatching elements as long as workers keep up.
		if err := ctx.Err(); err != nil {
			fail(i, fmt.Errorf("commutative: bulk operation cancelled: %w", err))
			break
		}
		select {
		case <-quit:
			break feed
		default:
		}
		select {
		case next <- i:
		case <-quit:
			break feed
		case <-ctx.Done():
			fail(i, fmt.Errorf("commutative: bulk operation cancelled: %w", ctx.Err()))
			break feed
		}
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
