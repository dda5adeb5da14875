package costmodel

import (
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// Byte-exact wire censuses.
//
// The Section 6.1 communication formulas count only the k-bit codewords:
// (|V_S|+2|V_R|)·k bits for intersection (and both size protocols),
// (|V_S|+3|V_R|)·k + |V_S|·k' bits for the equijoin.  A real run also
// carries a fixed envelope — two session headers, one count prefix per
// vector, one length prefix per ext ciphertext, and a frame header per
// message.  Because the codec is deterministic and fixed-width (see the
// wire package's encoded-size constants), that envelope is an exact
// affine function of the message counts, so the observed byte counters
// can be asserted equal to these functions, not merely close.

// WireCost is the exact frame/byte census of one protocol run as
// observed from the *receiver* endpoint R.  The sender's view is the
// mirror image: S sends PayloadBytesRecv and receives PayloadBytesSent.
type WireCost struct {
	// FramesSent and FramesRecv count messages (handshake included).
	FramesSent, FramesRecv int64
	// PayloadBytesSent/Recv are codec payload bytes (codewords + codec
	// envelope, no frame headers).
	PayloadBytesSent, PayloadBytesRecv int64
}

// WireBytesSent returns the on-wire bytes R sends: payload plus one
// transport frame header per frame.
func (w WireCost) WireBytesSent() int64 {
	return w.PayloadBytesSent + w.FramesSent*transport.FrameOverhead
}

// WireBytesRecv returns the on-wire bytes R receives.
func (w WireCost) WireBytesRecv() int64 {
	return w.PayloadBytesRecv + w.FramesRecv*transport.FrameOverhead
}

// WithHeaderLen adjusts a census computed for the legacy safe-prime
// header to a backend whose handshake header encodes to headerLen bytes
// (wire.HeaderLen): each direction carries exactly one header frame, so
// each payload total shifts by the difference.  The Section 6.1
// codeword terms are untouched — only the fixed envelope moves.
func (w WireCost) WithHeaderLen(headerLen int64) WireCost {
	extra := headerLen - wire.EncodedHeaderLen
	w.PayloadBytesSent += extra
	w.PayloadBytesRecv += extra
	return w
}

// TotalPayloadBytes returns payload traffic in both directions.
func (w WireCost) TotalPayloadBytes() int64 {
	return w.PayloadBytesSent + w.PayloadBytesRecv
}

// TotalWireBytes returns on-wire traffic in both directions.
func (w WireCost) TotalWireBytes() int64 {
	return w.WireBytesSent() + w.WireBytesRecv()
}

// ElementPayloadBytes returns the codeword-only byte count — the Section
// 6.1 bit formula divided by 8 — by stripping the fixed envelope from
// the payload totals: headers, per-vector count prefixes, and extra
// ext-length prefixes.
func (w WireCost) ElementPayloadBytes(vectors, extEntries int) int64 {
	return w.TotalPayloadBytes() -
		2*wire.EncodedHeaderLen -
		int64(vectors)*wire.VectorOverhead -
		int64(extEntries)*wire.ExtLenOverhead
}

// StreamedElementPayloadBytes is ElementPayloadBytes for a run in which
// every bulk vector was streamed: it strips two session headers, a
// Begin/End envelope per streamed vector, a count prefix per chunk
// frame, and the ext-length prefixes, leaving exactly the Section 6.1
// codeword bytes.  Streaming never re-encodes an element, so this must
// equal the legacy ElementPayloadBytes for the same inputs.
func (w WireCost) StreamedElementPayloadBytes(vectors int, chunkFrames int64, extEntries int) int64 {
	return w.TotalPayloadBytes() -
		2*wire.EncodedHeaderLen -
		int64(vectors)*(wire.EncodedStreamBeginLen+wire.EncodedStreamEndLen) -
		chunkFrames*wire.VectorOverhead -
		int64(extEntries)*wire.ExtLenOverhead
}

// StreamChunks returns ⌈n/chunkSize⌉, the number of StreamChunk frames a
// streamed vector of n entries occupies (an empty vector is framed by
// Begin and End alone).  chunkSize must be positive.
func StreamChunks(n, chunkSize int) int64 {
	if n <= 0 {
		return 0
	}
	return int64((n + chunkSize - 1) / chunkSize)
}

// vectorCost is the frame count and codec payload of one bulk vector of
// n entries of entryBytes each — the single place the vector layout is
// priced.  chunk <= 0 is the one-shot frame: a count prefix and the
// entries.  chunk > 0 is the stream: the Begin/End envelope and
// ⌈n/chunk⌉ chunk frames, each with its own count prefix, carrying the
// same entries.
func vectorCost(n, entryBytes, chunk int) (frames, payload int64) {
	entries := int64(n) * int64(entryBytes)
	if chunk <= 0 {
		return 1, wire.VectorOverhead + entries
	}
	q := StreamChunks(n, chunk)
	return q + 2, wire.EncodedStreamBeginLen + wire.EncodedStreamEndLen + q*wire.VectorOverhead + entries
}

// exchangeCost is the census shared by all four protocols, from R's
// endpoint: R sends its header and Y_R (|V_R| elements); it receives
// S's header, a reply of |V_R| entries of replyBytes each, and S's own
// vector of |V_S| entries of ownBytes each.
func exchangeCost(nS, nR, elemLen, replyBytes, ownBytes, chunk int) WireCost {
	yrFrames, yrBytes := vectorCost(nR, elemLen, chunk)
	replyFrames, reply := vectorCost(nR, replyBytes, chunk)
	ownFrames, own := vectorCost(nS, ownBytes, chunk)
	return WireCost{
		FramesSent:       1 + yrFrames,
		FramesRecv:       1 + replyFrames + ownFrames,
		PayloadBytesSent: wire.EncodedHeaderLen + yrBytes,
		PayloadBytesRecv: wire.EncodedHeaderLen + reply + own,
	}
}

// IntersectionWireCost returns the exact census of the Section 3.3
// intersection protocol from R's endpoint: R sends its header and the
// sorted Y_R (|V_R| elements); it receives S's header, the sorted Y_S
// (|V_S| elements), and the aligned re-encryptions of Y_R (|V_R|
// elements).  Codewords total (|V_S|+2|V_R|)·k bits — the Section 6.1
// formula.
func IntersectionWireCost(nS, nR, elemLen int) WireCost {
	return IntersectionWireCostChunked(nS, nR, elemLen, 0)
}

// IntersectionSizeWireCost equals IntersectionWireCost: the Section
// 5.1.1 protocol exchanges the same vectors, merely reordered.
func IntersectionSizeWireCost(nS, nR, elemLen int) WireCost {
	return IntersectionWireCost(nS, nR, elemLen)
}

// JoinSizeWireCost is IntersectionWireCost on the multiset sizes (rows
// with duplicates), per Section 5.2.
func JoinSizeWireCost(mS, mR, elemLen int) WireCost {
	return IntersectionWireCost(mS, mR, elemLen)
}

// JoinWireCost returns the exact census of the Section 4.3 equijoin from
// R's endpoint: R sends its header and Y_R (|V_R| elements); it receives
// S's header, |V_R| aligned ⟨f_eS(y), f_e'S(y)⟩ pairs (2|V_R| elements),
// and |V_S| ⟨f_eS(h(v)), c(v)⟩ pairs where each ciphertext c(v) occupies
// extLen bytes.  Codewords total (|V_S|+3|V_R|)·k + |V_S|·k' bits with
// k' = 8·extLen — the Section 6.1 formula.
func JoinWireCost(nS, nR, elemLen, extLen int) WireCost {
	return JoinWireCostChunked(nS, nR, elemLen, extLen, 0)
}

// IntersectionWireCostChunked is IntersectionWireCost for a run in which
// both parties stream with the given chunk size: every vector becomes
// Begin + ⌈n/chunk⌉ StreamChunk frames + End.  Only the envelope
// changes; the codeword bytes are identical to the legacy census.
// chunk <= 0 is the legacy (one-shot) census.
func IntersectionWireCostChunked(nS, nR, elemLen, chunk int) WireCost {
	return exchangeCost(nS, nR, elemLen, elemLen, elemLen, chunk)
}

// IntersectionSizeWireCostChunked equals IntersectionWireCostChunked,
// mirroring the legacy equivalence.
func IntersectionSizeWireCostChunked(nS, nR, elemLen, chunk int) WireCost {
	return IntersectionWireCostChunked(nS, nR, elemLen, chunk)
}

// JoinSizeWireCostChunked is IntersectionWireCostChunked on the multiset
// sizes, per Section 5.2.
func JoinSizeWireCostChunked(mS, mR, elemLen, chunk int) WireCost {
	return IntersectionWireCostChunked(mS, mR, elemLen, chunk)
}

// JoinWireCostChunked is JoinWireCost with both parties streaming: the
// pair reply mirrors the incoming Y_R chunk boundaries (⌈|V_R|/chunk⌉
// frames, each pair one entry of 2k bits), and the ext-pair vector
// streams in ⌈|V_S|/chunk⌉ StreamExtChunk frames.
func JoinWireCostChunked(nS, nR, elemLen, extLen, chunk int) WireCost {
	return exchangeCost(nS, nR, elemLen, 2*elemLen, elemLen+wire.ExtLenOverhead+extLen, chunk)
}
