package wire

import (
	"math/big"
	"testing"

	"minshare/internal/group"
)

// FuzzDecode hammers the codec with arbitrary bytes: it must never
// panic, and everything it accepts must re-encode to an equivalent
// message.  Run with `go test -fuzz FuzzDecode ./internal/wire` for a
// real campaign; `make fuzz-smoke` (part of `make check`) runs ten
// seconds of it, and the seeds alone run in normal `go test`.
func FuzzDecode(f *testing.F) {
	g := group.TestGroup()
	codec := NewCodec(g)

	// Seeds: one valid message of each kind plus corrupted variants.
	x, _ := g.RandomElement(nil)
	y, _ := g.RandomElement(nil)
	for _, m := range []Message{
		Header{Protocol: ProtoIntersection, GroupBits: 256, GroupDigest: GroupDigest(g), SetSize: 7},
		Header{Protocol: ProtoEquijoin, GroupBits: 256, GroupDigest: GroupDigest(g), SetSize: 7, Backend: group.CodeEC25519},
		Header{Protocol: ProtoIntersection, GroupBits: 256, GroupDigest: GroupDigest(g), SetSize: 7, Shards: 4},
		Elements{Elems: []*big.Int{x, y}},
		Pairs{A: []*big.Int{x}, B: []*big.Int{y}},
		Triples{A: []*big.Int{x}, B: []*big.Int{y}, C: []*big.Int{x}},
		ExtPairs{Elem: []*big.Int{x}, Ext: [][]byte{[]byte("payload")}},
		ErrorMsg{Text: "boom"},
		StreamBegin{Inner: KindElements, Count: 7},
		StreamBegin{Inner: KindPairs, Count: 4},
		StreamChunk{Elems: []*big.Int{x, y}},
		StreamExtChunk{Elem: []*big.Int{x}, Ext: [][]byte{[]byte("payload")}},
		StreamEnd{Chunks: 3},
		Subscribe{FromVersion: 5},
		SubUpdate{From: 5, To: 6, Upserts: []*big.Int{x}, Deleted: []*big.Int{y}},
		SubUpdate{From: 6, To: 8, HasExt: true, Upserts: []*big.Int{x, y}, UpsertExt: [][]byte{[]byte("payload"), {}}},
		SubAck{Version: 6},
		SubEnd{Code: SubEndClient},
	} {
		data, err := codec.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if len(data) > 2 {
			corrupt := append([]byte(nil), data...)
			corrupt[len(corrupt)/2] ^= 0xFF
			f.Add(corrupt)
			f.Add(corrupt[:len(corrupt)-1])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := codec.Decode(data)
		if err != nil {
			return // rejected: fine
		}
		// Accepted messages must re-encode without error.
		out, err := codec.Encode(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		back, err := codec.Decode(out)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if back.Kind() != m.Kind() {
			t.Fatalf("kind drifted: %v -> %v", m.Kind(), back.Kind())
		}
	})
}
