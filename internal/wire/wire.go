// Package wire defines the message vocabulary and binary codec for the
// paper's protocols.
//
// Every protocol in Sections 3-5 exchanges only a handful of message
// shapes: vectors of group elements (encrypted sets, reordered
// lexicographically), vectors of element pairs ⟨y, f_eS(y)⟩, vectors of
// element triples ⟨y, f_eS(y), f_e'S(y)⟩, and vectors of
// ⟨element, opaque-ciphertext⟩ pairs carrying the encrypted ext(v)
// payloads of the equijoin.  A session-opening header pins down the
// protocol, the group, and the announced set size (the paper's permitted
// additional information I = {|V_S|, |V_R|}).
//
// All of those vectors — one-shot, streamed in chunks, or pushed as a
// standing query's churn — are one body: a count, then per entry one
// to three fixed-width elements and optionally a length-prefixed
// ciphertext.  A message kind only chooses the column count and
// whether entries carry a ciphertext; putVector is the one loop that
// writes the body and getVector the one loop that reads it.
//
// The encoding is deterministic and fixed-width: each group element
// occupies exactly ElementLen bytes big-endian, so a message's byte count
// is an exact function of the counts the paper's Section 6.1
// communication analysis predicts.  Tests rely on this to verify the
// k-bit-per-codeword accounting literally.  Decoding is strict, and its
// memory is bounded by the bytes that arrived: a declared count sizes
// an allocation only after the frame has shown it holds that many
// entries.
//
// The authoritative byte-level layout of every message family —
// handshake, protocol frames, the streaming StreamBegin/Chunk/ExtChunk/
// End family, and error/saturation rejects — is written out field by
// field in DESIGN.md Section 10 ("Wire-format reference"); the codec in
// this package is its implementation.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"slices"

	"minshare/internal/group"
)

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds.
const (
	KindInvalid  Kind = iota
	KindHeader        // session header: protocol, group digest, set size
	KindElements      // vector of group elements
	KindPairs         // vector of ⟨a, b⟩ element pairs
	KindTriples       // vector of ⟨a, b, c⟩ element triples
	KindExtPairs      // vector of ⟨element, ciphertext⟩ pairs
	KindError         // fatal peer error
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindHeader:
		return "header"
	case KindElements:
		return "elements"
	case KindPairs:
		return "pairs"
	case KindTriples:
		return "triples"
	case KindExtPairs:
		return "extpairs"
	case KindError:
		return "error"
	case KindStreamBegin:
		return "stream-begin"
	case KindStreamChunk:
		return "stream-chunk"
	case KindStreamExtChunk:
		return "stream-ext-chunk"
	case KindStreamEnd:
		return "stream-end"
	case KindSubscribe:
		return "subscribe"
	case KindSubUpdate:
		return "sub-update"
	case KindSubAck:
		return "sub-ack"
	case KindSubEnd:
		return "sub-end"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Protocol identifies which of the paper's protocols a session runs.
type Protocol uint8

// Protocols, in paper order.
const (
	ProtoInvalid          Protocol = iota
	ProtoIntersection              // Section 3.3
	ProtoEquijoin                  // Section 4.3
	ProtoIntersectionSize          // Section 5.1.1
	ProtoEquijoinSize              // Section 5.2
	ProtoNaiveHash                 // Section 3.1 (insecure baseline)
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtoIntersection:
		return "intersection"
	case ProtoEquijoin:
		return "equijoin"
	case ProtoIntersectionSize:
		return "intersection-size"
	case ProtoEquijoinSize:
		return "equijoin-size"
	case ProtoNaiveHash:
		return "naive-hash"
	default:
		return fmt.Sprintf("protocol(%d)", uint8(p))
	}
}

// Codec limits and errors.
var (
	// ErrTruncated reports a message shorter than its declared contents.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrTrailing reports unexpected bytes after a complete message.
	ErrTrailing = errors.New("wire: trailing garbage")
	// ErrBadKind reports an unknown message kind byte.
	ErrBadKind = errors.New("wire: unknown message kind")
	// ErrTooLarge reports a declared count above MaxVectorLen.
	ErrTooLarge = errors.New("wire: vector too large")
	// ErrKindMismatch reports receiving a different kind than expected.
	ErrKindMismatch = errors.New("wire: unexpected message kind")
	// ErrBadShards reports a sharded header layout whose shard byte is 0
	// or 1 — values the unsharded encodings already own, so an explicit
	// byte would alias two distinct wire forms.
	ErrBadShards = errors.New("wire: shard byte in sharded header must be > 1")
)

// MaxVectorLen bounds declared element counts.  It is a sanity limit,
// not the memory bound: getVector refuses any count the frame's own
// bytes cannot hold before it allocates for it.
const MaxVectorLen = 1 << 24

// Encoded-size constants.  The codec is deterministic and fixed-width,
// so a message's payload size is an exact affine function of its element
// count; the cost model (internal/costmodel) and the experiment harness
// use these to translate the paper's Section 6.1 bit formulas — which
// count only the k-bit codewords — into exact frame payload sizes.
const (
	// ShardEncodedHeaderLen is the encoded size of a Header that
	// announces shard-parallel execution (Shards > 1): the backend-
	// announcing layout plus one trailing shard-count byte.  A sharded
	// header always carries the backend byte — even for the default
	// safe-prime backend — so the decoder can tell the two trailing-byte
	// layouts apart by length alone; see Header.Shards.
	ShardEncodedHeaderLen = BackendEncodedHeaderLen + 1
	// BackendEncodedHeaderLen is the encoded size of a Header that
	// announces a non-default group backend: EncodedHeaderLen plus one
	// trailing backend-code byte.  Headers for the default safe-prime
	// backend (code 0) omit the byte entirely, so a safe-prime session's
	// handshake remains byte-identical to every earlier release; see
	// Header.Backend.
	BackendEncodedHeaderLen = EncodedHeaderLen + 1
	// EncodedHeaderLen is the full encoded size of a Header message:
	// kind(1) + protocol(1) + group bits(4) + group digest(32) +
	// set size(8) + set version(8) + trace id(16) + span id(8).
	EncodedHeaderLen = 1 + 1 + 4 + 32 + 8 + 8 + 16 + 8
	// VectorOverhead is the fixed cost of any vector message beyond its
	// elements: kind byte(1) + element count(4).
	VectorOverhead = 1 + 4
	// ExtLenOverhead is the per-entry length prefix of an ExtPairs
	// ciphertext.
	ExtLenOverhead = 4
)

// HeaderLen returns the encoded header size a session negotiating the
// given backend code puts on the wire: the legacy EncodedHeaderLen for
// the default safe-prime backend, BackendEncodedHeaderLen (one extra
// code byte) for every other backend.
func HeaderLen(c group.Code) int64 {
	if c != 0 {
		return BackendEncodedHeaderLen
	}
	return EncodedHeaderLen
}

// ShardedHeaderLen is HeaderLen for a session that also negotiates
// shard-parallel execution: shards > 1 appends the shard-count byte
// (and, with it, always the backend byte), while shards <= 1 leaves the
// header exactly as HeaderLen describes — the k=1 byte-identity
// guarantee.
func ShardedHeaderLen(c group.Code, shards int) int64 {
	if shards > 1 {
		return ShardEncodedHeaderLen
	}
	return HeaderLen(c)
}

// Message is any protocol message.
type Message interface {
	Kind() Kind
}

// Header opens a session in both directions.
type Header struct {
	Protocol    Protocol
	GroupBits   uint32
	GroupDigest [32]byte // SHA-256 of the modulus bytes
	SetSize     uint64   // announced |V| — part of the revealed info I
	// SetVersion is the announcing party's monotonic data version
	// (reldb.Table.Version for a served table; 0 when unversioned).  A
	// peer that cached results or encrypted state from an earlier
	// session can compare versions to detect a stale counterpart.
	SetVersion uint64
	// TraceID is the distributed-trace identity for this protocol run.
	// The session initiator mints it; the responder adopts it and echoes
	// it back, so both endpoints' span trees stitch into one trace.  All
	// zeros means "untraced" (an uninstrumented peer).
	TraceID [16]byte
	// SpanID is the announcing party's root span identity, which becomes
	// the parent of the adopting peer's root span.  Zero when untraced.
	SpanID uint64
	// Backend is the announced commutative-encryption backend
	// (group.CodeQR or group.CodeEC25519).  The wire encoding is
	// backwards compatible by construction: the safe-prime backend is
	// code 0 and is encoded by OMITTING the field, so safe-prime headers
	// are byte-identical to pre-backend releases, and a legacy header's
	// absent field decodes as 0 = safe prime — exactly what a legacy
	// peer runs.  A non-zero code appends one byte, which a legacy
	// decoder rejects as a length error: a mixed-backend pairing fails
	// loudly at the handshake instead of exchanging cross-group garbage.
	Backend group.Code
	// Shards is the announced shard-parallel fan-out k: the session runs
	// as k independent sub-protocols over one multiplexed transport,
	// partitioned by hash prefix (see core.Config.Shards).  Zero and one
	// both mean "unsharded" and are encoded by OMITTING the field — and,
	// with it, nothing changes in the header at all — so an unsharded
	// session is byte-identical to every earlier release.  A value > 1
	// appends one trailing byte after the backend byte (which is then
	// always present, even for the default backend, keeping the layouts
	// distinguishable by length); a legacy decoder rejects the longer
	// header as a length error, so a sharded initiator and a pre-shard
	// peer fail loudly at the handshake rather than deadlocking over a
	// half-multiplexed connection.
	Shards uint8
}

// Kind implements Message.
func (Header) Kind() Kind { return KindHeader }

// Elements is a vector of group elements.
type Elements struct {
	Elems []*big.Int
}

// Kind implements Message.
func (Elements) Kind() Kind { return KindElements }

// Pairs is a vector of element pairs ⟨A[i], B[i]⟩.
type Pairs struct {
	A, B []*big.Int
}

// Kind implements Message.
func (Pairs) Kind() Kind { return KindPairs }

// Triples is a vector of element triples ⟨A[i], B[i], C[i]⟩.
type Triples struct {
	A, B, C []*big.Int
}

// Kind implements Message.
func (Triples) Kind() Kind { return KindTriples }

// ExtPairs is a vector of ⟨element, ciphertext⟩ pairs: the equijoin's
// ⟨f_eS(h(v)), K(κ(v), ext(v))⟩ messages.
type ExtPairs struct {
	Elem []*big.Int
	Ext  [][]byte
}

// Kind implements Message.
func (ExtPairs) Kind() Kind { return KindExtPairs }

// ErrorMsg carries a fatal error to the peer before closing.
type ErrorMsg struct {
	Text string
}

// Kind implements Message.
func (ErrorMsg) Kind() Kind { return KindError }

// GroupDigest derives the header digest identifying a backend's concrete
// group parameters.  For the safe-prime backend this is the SHA-256 of
// the modulus bytes, unchanged since the first release.
func GroupDigest(b group.Backend) [32]byte {
	return b.ParamDigest()
}

// Codec encodes and decodes messages for a fixed group.  The element
// width is pinned at construction so both peers agree byte-for-byte.
type Codec struct {
	elemLen int
}

// NewCodec returns a codec whose group elements occupy b.ElementLen()
// bytes each.
func NewCodec(b group.Backend) *Codec {
	return &Codec{elemLen: b.ElementLen()}
}

// ElemLen returns the fixed element width in bytes (k/8 in the paper's
// communication formulas).
func (c *Codec) ElemLen() int { return c.elemLen }

// putElem appends x as exactly elemLen big-endian bytes, left-padded
// with zeros, without allocating.
func (c *Codec) putElem(buf []byte, x *big.Int) []byte {
	if n := (x.BitLen() + 7) / 8; n > c.elemLen {
		// Element wider than the group modulus: caller bug.
		panic(fmt.Sprintf("wire: element of %d bytes exceeds width %d", n, c.elemLen))
	}
	buf = append(buf, make([]byte, c.elemLen)...)
	x.FillBytes(buf[len(buf)-c.elemLen:])
	return buf
}

func (c *Codec) getElem(buf []byte) (*big.Int, []byte, error) {
	if len(buf) < c.elemLen {
		return nil, nil, ErrTruncated
	}
	return new(big.Int).SetBytes(buf[:c.elemLen]), buf[c.elemLen:], nil
}

// putVector appends one vector body: a count n, then n entries, each
// one element from every column in order followed — when hasExt — by a
// length-prefixed ciphertext.  Every vector-bearing kind is this body
// with its own column count (DESIGN.md Section 10.3); this is the only
// loop that writes elements into a frame.  The body is sized once, so
// the loop itself never grows buf.
func (c *Codec) putVector(buf []byte, hasExt bool, ext [][]byte, cols ...[]*big.Int) ([]byte, error) {
	n := len(cols[0])
	for _, col := range cols[1:] {
		if len(col) != n {
			return nil, fmt.Errorf("wire: vector length mismatch %d != %d", len(col), n)
		}
	}
	size := 4 + n*len(cols)*c.elemLen // count prefix + fixed-width columns
	if hasExt {
		if len(ext) != n {
			return nil, fmt.Errorf("wire: ext vector length mismatch %d != %d", len(ext), n)
		}
		for _, x := range ext {
			size += ExtLenOverhead + len(x)
		}
	}
	buf = putCount(slices.Grow(buf, size), n)
	for i := 0; i < n; i++ {
		for _, col := range cols {
			buf = c.putElem(buf, col[i])
		}
		if hasExt {
			buf = append(putCount(buf, len(ext[i])), ext[i]...)
		}
	}
	return buf, nil
}

// getVector parses one vector body of ncols (at most 3) columns, the
// inverse of putVector and the only loop that reads elements out of a
// frame.  It refuses a count the remaining bytes cannot hold before it
// allocates anything sized by that count, so a short hostile frame
// costs its sender's bytes, not this side's memory.
func (c *Codec) getVector(buf []byte, ncols int, hasExt bool) (cols [3][]*big.Int, ext [][]byte, rest []byte, err error) {
	n, buf, err := getCount(buf)
	if err != nil {
		return cols, nil, nil, err
	}
	minEntry := ncols * c.elemLen
	if hasExt {
		minEntry += ExtLenOverhead
	}
	if int64(n)*int64(minEntry) > int64(len(buf)) {
		return cols, nil, nil, fmt.Errorf("%w: %d entries declared, %d bytes follow", ErrTruncated, n, len(buf))
	}
	for k := 0; k < ncols; k++ {
		cols[k] = make([]*big.Int, n)
	}
	if hasExt {
		ext = make([][]byte, n)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < ncols; k++ {
			if cols[k][i], buf, err = c.getElem(buf); err != nil {
				return cols, nil, nil, err
			}
		}
		if hasExt {
			var l int
			if l, buf, err = getCount(buf); err != nil {
				return cols, nil, nil, err
			}
			if len(buf) < l {
				return cols, nil, nil, ErrTruncated
			}
			ext[i] = append([]byte(nil), buf[:l]...)
			buf = buf[l:]
		}
	}
	return cols, ext, buf, nil
}

// getBody parses a frame body that is exactly one vector.
func (c *Codec) getBody(buf []byte, ncols int, hasExt bool) ([3][]*big.Int, [][]byte, error) {
	cols, ext, buf, err := c.getVector(buf, ncols, hasExt)
	if err == nil {
		err = trailing(buf)
	}
	return cols, ext, err
}

func putCount(buf []byte, n int) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(n))
	return append(buf, b[:]...)
}

func getCount(buf []byte) (int, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(buf)
	if n > MaxVectorLen {
		return 0, nil, fmt.Errorf("%w: %d elements", ErrTooLarge, n)
	}
	return int(n), buf[4:], nil
}

// Encode serializes a message as kind byte + body.
func (c *Codec) Encode(m Message) ([]byte, error) {
	buf := []byte{byte(m.Kind())}
	switch v := m.(type) {
	case Header:
		buf = append(buf, byte(v.Protocol))
		var b4 [4]byte
		binary.BigEndian.PutUint32(b4[:], v.GroupBits)
		buf = append(buf, b4[:]...)
		buf = append(buf, v.GroupDigest[:]...)
		var b8 [8]byte
		binary.BigEndian.PutUint64(b8[:], v.SetSize)
		buf = append(buf, b8[:]...)
		binary.BigEndian.PutUint64(b8[:], v.SetVersion)
		buf = append(buf, b8[:]...)
		buf = append(buf, v.TraceID[:]...)
		binary.BigEndian.PutUint64(b8[:], v.SpanID)
		buf = append(buf, b8[:]...)
		// The backend byte is appended only for non-default backends,
		// keeping safe-prime headers byte-identical to every earlier
		// release (see Header.Backend).  A sharded header (Shards > 1)
		// always carries it — the shard byte's position is defined
		// relative to a present backend byte — followed by the shard
		// count; Shards <= 1 adds nothing (see Header.Shards).
		if v.Backend != 0 || v.Shards > 1 {
			buf = append(buf, byte(v.Backend))
		}
		if v.Shards > 1 {
			buf = append(buf, v.Shards)
		}
	case Elements:
		return c.putVector(buf, false, nil, v.Elems)
	case Pairs:
		return c.putVector(buf, false, nil, v.A, v.B)
	case Triples:
		return c.putVector(buf, false, nil, v.A, v.B, v.C)
	case ExtPairs:
		return c.putVector(buf, true, v.Ext, v.Elem)
	case ErrorMsg:
		buf = putCount(buf, len(v.Text))
		buf = append(buf, v.Text...)
	case StreamBegin:
		return c.encodeStreamBegin(buf, v)
	case StreamChunk:
		return c.putVector(buf, false, nil, v.Elems)
	case StreamExtChunk:
		return c.putVector(buf, true, v.Ext, v.Elem)
	case StreamEnd:
		buf = c.encodeStreamEnd(buf, v)
	case Subscribe:
		buf = c.encodeSubscribe(buf, v)
	case SubUpdate:
		return c.encodeSubUpdate(buf, v)
	case SubAck:
		buf = c.encodeSubAck(buf, v)
	case SubEnd:
		return c.encodeSubEnd(buf, v)
	default:
		return nil, fmt.Errorf("wire: cannot encode %T", m)
	}
	return buf, nil
}

// Decode parses a serialized message, rejecting truncation, trailing
// bytes, and oversized counts.
func (c *Codec) Decode(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	kind := Kind(data[0])
	buf := data[1:]
	switch kind {
	case KindHeader:
		// Three accepted layouts: shard-announcing (backend byte plus a
		// trailing shard-count byte), backend-announcing (one trailing
		// backend-code byte), and plain.  A trailing field absent from a
		// shorter layout decodes as zero, which each defines as its
		// "absent" value: Backend zero is the safe-prime domain, Shards
		// zero is unsharded.
		switch len(buf) {
		case ShardEncodedHeaderLen - 1, BackendEncodedHeaderLen - 1, EncodedHeaderLen - 1:
		default:
			return nil, fmt.Errorf("%w: header of %d bytes", ErrTruncated, len(buf))
		}
		var h Header
		h.Protocol = Protocol(buf[0])
		h.GroupBits = binary.BigEndian.Uint32(buf[1:5])
		copy(h.GroupDigest[:], buf[5:37])
		h.SetSize = binary.BigEndian.Uint64(buf[37:45])
		h.SetVersion = binary.BigEndian.Uint64(buf[45:53])
		copy(h.TraceID[:], buf[53:69])
		h.SpanID = binary.BigEndian.Uint64(buf[69:77])
		if len(buf) >= BackendEncodedHeaderLen-1 {
			h.Backend = group.Code(buf[77])
		}
		if len(buf) == ShardEncodedHeaderLen-1 {
			h.Shards = buf[78]
			if h.Shards <= 1 {
				return nil, fmt.Errorf("%w: got %d", ErrBadShards, h.Shards)
			}
		}
		return h, nil
	case KindElements:
		cols, _, err := c.getBody(buf, 1, false)
		if err != nil {
			return nil, err
		}
		return Elements{Elems: cols[0]}, nil
	case KindPairs:
		cols, _, err := c.getBody(buf, 2, false)
		if err != nil {
			return nil, err
		}
		return Pairs{A: cols[0], B: cols[1]}, nil
	case KindTriples:
		cols, _, err := c.getBody(buf, 3, false)
		if err != nil {
			return nil, err
		}
		return Triples{A: cols[0], B: cols[1], C: cols[2]}, nil
	case KindExtPairs:
		cols, ext, err := c.getBody(buf, 1, true)
		if err != nil {
			return nil, err
		}
		return ExtPairs{Elem: cols[0], Ext: ext}, nil
	case KindError:
		l, buf, err := getCount(buf)
		if err != nil {
			return nil, err
		}
		if len(buf) < l {
			return nil, ErrTruncated
		}
		if err := trailing(buf[l:]); err != nil {
			return nil, err
		}
		return ErrorMsg{Text: string(buf[:l])}, nil
	case KindStreamBegin:
		return c.decodeStreamBegin(buf)
	case KindStreamChunk:
		cols, _, err := c.getBody(buf, 1, false)
		if err != nil {
			return nil, err
		}
		return StreamChunk{Elems: cols[0]}, nil
	case KindStreamExtChunk:
		cols, ext, err := c.getBody(buf, 1, true)
		if err != nil {
			return nil, err
		}
		return StreamExtChunk{Elem: cols[0], Ext: ext}, nil
	case KindStreamEnd:
		return c.decodeStreamEnd(buf)
	case KindSubscribe:
		return c.decodeSubscribe(buf)
	case KindSubUpdate:
		return c.decodeSubUpdate(buf)
	case KindSubAck:
		return c.decodeSubAck(buf)
	case KindSubEnd:
		return c.decodeSubEnd(buf)
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, kind)
	}
}

func trailing(buf []byte) error {
	if len(buf) != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(buf))
	}
	return nil
}
