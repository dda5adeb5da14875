package wire

import (
	"fmt"
	"math/big"
)

// Stream message family (PR 2).
//
// A bulk vector can cross the wire either as one legacy frame
// (Elements / Pairs / ExtPairs) or as a *stream*: a StreamBegin frame
// announcing the inner vector kind and total entry count, followed by
// ⌈n/chunkSize⌉ chunk frames carrying contiguous runs of entries, and
// a StreamEnd frame echoing the chunk count.  Streams let a sender put
// the first elements on the wire while later ones are still being
// exponentiated, and let the receiver validate and re-encrypt each
// chunk while the next is in flight — the pipeline the core package
// builds on top of this vocabulary.
//
// The chunk encodings reuse the vector layouts byte-for-byte: a
// streamed vector carries exactly the same element codewords as its
// one-shot form, plus the fixed Begin/End envelope and one count
// prefix per chunk.  The cost model (internal/costmodel) charges the
// envelope exactly.

// Stream message kinds, continuing the Kind enumeration of wire.go
// (KindError = 6) without disturbing the legacy values.
const (
	// KindStreamBegin opens a streamed vector.
	KindStreamBegin Kind = iota + 7
	// KindStreamChunk carries a run of elements of a streamed Elements
	// or Pairs vector.
	KindStreamChunk
	// KindStreamExtChunk carries a run of ⟨element, ciphertext⟩ entries
	// of a streamed ExtPairs vector.
	KindStreamExtChunk
	// KindStreamEnd closes a streamed vector.
	KindStreamEnd
)

// Encoded sizes of the stream envelope, used by the cost model to
// account for streamed traffic exactly.
const (
	// EncodedStreamBeginLen is the full encoded size of a StreamBegin:
	// kind(1) + inner kind(1) + entry count(4).
	EncodedStreamBeginLen = 1 + 1 + 4
	// EncodedStreamEndLen is the full encoded size of a StreamEnd:
	// kind(1) + chunk count(4).
	EncodedStreamEndLen = 1 + 4
)

// StreamBegin opens a streamed vector: the chunks that follow carry,
// between them, exactly Count entries of the Inner vector kind
// (KindElements, KindPairs, or KindExtPairs; a pair counts as one
// entry).
type StreamBegin struct {
	Inner Kind
	Count uint32
}

// Kind implements Message.
func (StreamBegin) Kind() Kind { return KindStreamBegin }

// StreamChunk carries a contiguous run of group elements of a streamed
// Elements or Pairs vector.  For an inner kind of KindPairs the
// elements interleave the two components: a0 b0 a1 b1 ….
type StreamChunk struct {
	Elems []*big.Int
}

// Kind implements Message.
func (StreamChunk) Kind() Kind { return KindStreamChunk }

// StreamExtChunk carries a contiguous run of ⟨element, ciphertext⟩
// entries of a streamed ExtPairs vector.
type StreamExtChunk struct {
	Elem []*big.Int
	Ext  [][]byte
}

// Kind implements Message.
func (StreamExtChunk) Kind() Kind { return KindStreamExtChunk }

// StreamEnd closes a streamed vector, echoing the number of chunk
// frames for a final consistency check.
type StreamEnd struct {
	Chunks uint32
}

// Kind implements Message.
func (StreamEnd) Kind() Kind { return KindStreamEnd }

// streamInnerOK reports whether k may appear as a StreamBegin inner
// kind.
func streamInnerOK(k Kind) bool {
	return k == KindElements || k == KindPairs || k == KindExtPairs
}

func (c *Codec) encodeStreamBegin(buf []byte, v StreamBegin) ([]byte, error) {
	if !streamInnerOK(v.Inner) {
		return nil, fmt.Errorf("wire: %v cannot be streamed", v.Inner)
	}
	buf = append(buf, byte(v.Inner))
	return putCount(buf, int(v.Count)), nil
}

func (c *Codec) decodeStreamBegin(buf []byte) (Message, error) {
	if len(buf) < 1 {
		return nil, ErrTruncated
	}
	inner := Kind(buf[0])
	if !streamInnerOK(inner) {
		return nil, fmt.Errorf("%w: stream of kind %d", ErrBadKind, buf[0])
	}
	n, buf, err := getCount(buf[1:])
	if err != nil {
		return nil, err
	}
	if err := trailing(buf); err != nil {
		return nil, err
	}
	return StreamBegin{Inner: inner, Count: uint32(n)}, nil
}

func (c *Codec) encodeStreamEnd(buf []byte, v StreamEnd) []byte {
	return putCount(buf, int(v.Chunks))
}

func (c *Codec) decodeStreamEnd(buf []byte) (Message, error) {
	n, buf, err := getCount(buf)
	if err != nil {
		return nil, err
	}
	if err := trailing(buf); err != nil {
		return nil, err
	}
	return StreamEnd{Chunks: uint32(n)}, nil
}
