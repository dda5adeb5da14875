package commutative

import (
	"context"
	"math/big"
)

// Chunk is one in-order slice of a streamed bulk operation.  Off is the
// index of Elems[0] within the input vector.  A chunk with Err != nil is
// terminal: the channel is closed immediately after it and Elems is nil.
type Chunk struct {
	Off   int
	Elems []*big.Int
	Err   error
}

// EncryptStream encrypts xs under k in chunks of chunkSize elements,
// emitting completed chunks in input order on the returned channel.
// Each chunk runs through the same worker pool as EncryptAll (with the
// given parallelism), so chunk i+1 is being exponentiated while the
// consumer ships chunk i — the producer half of the protocol pipeline.
//
// chunkSize <= 0 emits the whole vector as a single chunk.  The channel
// is buffered one chunk deep: the producer stays at most one chunk
// ahead of the consumer.  The consumer must drain the channel or cancel
// ctx; after an error chunk the channel closes without further sends.
func EncryptStream(ctx context.Context, s Scheme, k *Key, xs []*big.Int, chunkSize, parallelism int) <-chan Chunk {
	if chunkSize <= 0 {
		chunkSize = len(xs)
		if chunkSize == 0 {
			chunkSize = 1
		}
	}
	out := make(chan Chunk, 1)
	go func() {
		defer close(out)
		for off := 0; off < len(xs); off += chunkSize {
			end := off + chunkSize
			if end > len(xs) {
				end = len(xs)
			}
			// The base offset lets a chunk-level failure name the
			// global element index.
			ys, err := EncryptAllAt(ctx, s, k, xs[off:end], parallelism, off)
			if err != nil {
				select {
				case out <- Chunk{Off: off, Err: err}:
				case <-ctx.Done():
				}
				return
			}
			select {
			case out <- Chunk{Off: off, Elems: ys}:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}
