package wire

import (
	"encoding/binary"
	"fmt"
	"math/big"
)

// Subscription message family (PR 9).
//
// A standing query turns one protocol run into a session that stays
// open: after the base intersection/equijoin completes, the receiver
// sends Subscribe naming the sender data version its result reflects,
// and the sender pushes one SubUpdate per mutation batch — the churn of
// its encrypted set, already under the session's pinned e_S — which the
// receiver folds into its retained state for O(churn) work.  Each
// update is acknowledged with SubAck; either side ends the subscription
// with SubEnd.  None of these kinds ever appears in a non-subscribed
// session, so the legacy transcripts stay byte-identical.

// Subscription message kinds, continuing the Kind enumeration after the
// stream family (KindStreamEnd = 10).
const (
	// KindSubscribe asks the sender to push encrypted deltas.
	KindSubscribe Kind = iota + 11
	// KindSubUpdate carries one batch of encrypted churn.
	KindSubUpdate
	// KindSubAck confirms an applied update.
	KindSubAck
	// KindSubEnd closes the subscription from either side.
	KindSubEnd
)

// Encoded sizes of the subscription envelope, used by the cost model to
// account for standing-query traffic exactly.
const (
	// EncodedSubscribeLen is the full encoded size of a Subscribe:
	// kind(1) + from-version(8).
	EncodedSubscribeLen = 1 + 8
	// EncodedSubUpdateBaseLen is the encoded size of a SubUpdate before
	// its entries: kind(1) + from(8) + to(8) + ext flag(1) + upsert
	// count(4) + delete count(4).  Each upsert adds one element codeword
	// (plus, with HasExt, ExtLenOverhead and the ciphertext); each
	// delete adds one element codeword.
	EncodedSubUpdateBaseLen = 1 + 8 + 8 + 1 + 4 + 4
	// EncodedSubAckLen is the full encoded size of a SubAck:
	// kind(1) + version(8).
	EncodedSubAckLen = 1 + 8
	// EncodedSubEndLen is the full encoded size of a SubEnd:
	// kind(1) + code(1).
	EncodedSubEndLen = 1 + 1
)

// SubEnd close codes.
const (
	// SubEndServer means the sender is closing: it cannot (or will no
	// longer) serve deltas, and the receiver's result stays valid for
	// the last acknowledged version.
	SubEndServer uint8 = 0
	// SubEndClient means the receiver is done listening.
	SubEndClient uint8 = 1
)

// Subscribe asks the sender to keep the session open and push encrypted
// deltas.  FromVersion is the sender data version the receiver's result
// reflects — the version the first SubUpdate must continue from.
type Subscribe struct {
	FromVersion uint64
}

// Kind implements Message.
func (Subscribe) Kind() Kind { return KindSubscribe }

// SubUpdate carries one batch of encrypted churn spanning sender data
// versions From (exclusive) to To (inclusive).  Upserts holds the
// f_eS(h(v)) of inserted values — and, when HasExt, of updated values
// too, each with its fresh K(κ(v), ext(v)) ciphertext in the aligned
// UpsertExt — sorted; Deleted holds the f_eS(h(v)) of removed values,
// sorted.  The set protocols never send an ext-less update (membership
// did not change), so HasExt distinguishes the equijoin shape.
type SubUpdate struct {
	From, To  uint64
	HasExt    bool
	Upserts   []*big.Int
	UpsertExt [][]byte
	Deleted   []*big.Int
}

// Kind implements Message.
func (SubUpdate) Kind() Kind { return KindSubUpdate }

// SubAck confirms the receiver applied updates through the named sender
// data version.
type SubAck struct {
	Version uint64
}

// Kind implements Message.
func (SubAck) Kind() Kind { return KindSubAck }

// SubEnd closes the subscription; Code says which side ended it and
// why (SubEndServer or SubEndClient).
type SubEnd struct {
	Code uint8
}

// Kind implements Message.
func (SubEnd) Kind() Kind { return KindSubEnd }

func putU64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}

func getU64(buf []byte) (uint64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, ErrTruncated
	}
	return binary.BigEndian.Uint64(buf), buf[8:], nil
}

func (c *Codec) encodeSubscribe(buf []byte, v Subscribe) []byte {
	return putU64(buf, v.FromVersion)
}

func (c *Codec) decodeSubscribe(buf []byte) (Message, error) {
	from, buf, err := getU64(buf)
	if err != nil {
		return nil, err
	}
	if err := trailing(buf); err != nil {
		return nil, err
	}
	return Subscribe{FromVersion: from}, nil
}

func (c *Codec) encodeSubUpdate(buf []byte, v SubUpdate) ([]byte, error) {
	if !v.HasExt && len(v.UpsertExt) != 0 {
		return nil, fmt.Errorf("wire: sub-update carries %d exts without the ext flag", len(v.UpsertExt))
	}
	buf = putU64(buf, v.From)
	buf = putU64(buf, v.To)
	flag := byte(0)
	if v.HasExt {
		flag = 1
	}
	buf, err := c.putVector(append(buf, flag), v.HasExt, v.UpsertExt, v.Upserts)
	if err != nil {
		return nil, err
	}
	return c.putVector(buf, false, nil, v.Deleted)
}

func (c *Codec) decodeSubUpdate(buf []byte) (Message, error) {
	var v SubUpdate
	var err error
	if v.From, buf, err = getU64(buf); err != nil {
		return nil, err
	}
	if v.To, buf, err = getU64(buf); err != nil {
		return nil, err
	}
	if len(buf) < 1 {
		return nil, ErrTruncated
	}
	switch buf[0] {
	case 0:
	case 1:
		v.HasExt = true
	default:
		return nil, fmt.Errorf("wire: sub-update ext flag %d", buf[0])
	}
	cols, ext, buf, err := c.getVector(buf[1:], 1, v.HasExt)
	if err != nil {
		return nil, err
	}
	v.Upserts, v.UpsertExt = cols[0], ext
	if cols, _, err = c.getBody(buf, 1, false); err != nil {
		return nil, err
	}
	v.Deleted = cols[0]
	return v, nil
}

func (c *Codec) encodeSubAck(buf []byte, v SubAck) []byte {
	return putU64(buf, v.Version)
}

func (c *Codec) decodeSubAck(buf []byte) (Message, error) {
	ver, buf, err := getU64(buf)
	if err != nil {
		return nil, err
	}
	if err := trailing(buf); err != nil {
		return nil, err
	}
	return SubAck{Version: ver}, nil
}

func (c *Codec) encodeSubEnd(buf []byte, v SubEnd) ([]byte, error) {
	if v.Code != SubEndServer && v.Code != SubEndClient {
		return nil, fmt.Errorf("wire: sub-end code %d", v.Code)
	}
	return append(buf, v.Code), nil
}

func (c *Codec) decodeSubEnd(buf []byte) (Message, error) {
	if len(buf) < 1 {
		return nil, ErrTruncated
	}
	if buf[0] != SubEndServer && buf[0] != SubEndClient {
		return nil, fmt.Errorf("wire: sub-end code %d", buf[0])
	}
	if err := trailing(buf[1:]); err != nil {
		return nil, err
	}
	return SubEnd{Code: buf[0]}, nil
}
