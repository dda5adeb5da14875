package wire

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"minshare/internal/group"
)

func testCodec() (*Codec, *group.Group) {
	g := group.TestGroup()
	return NewCodec(g), g
}

func randElems(t testing.TB, g *group.Group, n int, seed int64) []*big.Int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*big.Int, n)
	for i := range out {
		var err error
		out[i], err = g.RandomElement(rng)
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func roundTrip(t *testing.T, c *Codec, m Message) Message {
	t.Helper()
	data, err := c.Encode(m)
	if err != nil {
		t.Fatalf("Encode(%v): %v", m.Kind(), err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatalf("Decode(%v): %v", m.Kind(), err)
	}
	if got.Kind() != m.Kind() {
		t.Fatalf("kind changed: %v -> %v", m.Kind(), got.Kind())
	}
	return got
}

func TestHeaderRoundTrip(t *testing.T) {
	c, g := testCodec()
	h := Header{
		Protocol:    ProtoEquijoin,
		GroupBits:   uint32(g.Bits()),
		GroupDigest: GroupDigest(g),
		SetSize:     123456789,
		SetVersion:  42,
		TraceID:     [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		SpanID:      0xDEADBEEFCAFEF00D,
	}
	got := roundTrip(t, c, h).(Header)
	if got != h {
		t.Errorf("header round trip: got %+v, want %+v", got, h)
	}
	data, err := c.Encode(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != EncodedHeaderLen {
		t.Errorf("encoded header is %d bytes, want EncodedHeaderLen = %d", len(data), EncodedHeaderLen)
	}
}

// TestHeaderDecodeLegacy pins the removal of the two header layouts no
// build of this tree can emit: the pre-S27 46-byte header (no set
// version) and the pre-trace 54-byte header (no trace context) are
// rejected as truncated, like every other length that is not one of
// the three rows (78/79/80) of the table in DESIGN.md §10.2; any new
// header field must add a row there.
func TestHeaderDecodeLegacy(t *testing.T) {
	c, g := testCodec()
	h := Header{
		Protocol:    ProtoIntersection,
		GroupBits:   uint32(g.Bits()),
		GroupDigest: GroupDigest(g),
		SetSize:     987654321,
		SetVersion:  42,
		TraceID:     [16]byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x10},
		SpanID:      0x1234567890ABCDEF,
	}
	data, err := c.Encode(h)
	if err != nil {
		t.Fatal(err)
	}
	const preS27, preTrace = 46, 54
	for _, n := range []int{
		preS27 - 1, preS27, preS27 + 3,
		preTrace - 1, preTrace, preTrace + 3,
		EncodedHeaderLen - 1,
	} {
		if _, err := c.Decode(data[:n]); !errors.Is(err, ErrTruncated) {
			t.Errorf("%d-byte header: err = %v, want ErrTruncated", n, err)
		}
	}
}

func TestElementsRoundTrip(t *testing.T) {
	c, g := testCodec()
	for _, n := range []int{0, 1, 7, 100} {
		want := randElems(t, g, n, int64(n))
		got := roundTrip(t, c, Elements{Elems: want}).(Elements)
		if len(got.Elems) != n {
			t.Fatalf("n=%d: got %d elements", n, len(got.Elems))
		}
		for i := range want {
			if got.Elems[i].Cmp(want[i]) != 0 {
				t.Fatalf("n=%d: element %d mismatch", n, i)
			}
		}
	}
}

func TestElementsFixedWidth(t *testing.T) {
	// Small elements must be zero-padded: a vector of n elements is
	// exactly 1 + 4 + n*ElemLen bytes, the paper's n·k bits.
	c, _ := testCodec()
	small := []*big.Int{big.NewInt(4), big.NewInt(9)}
	data, err := c.Encode(Elements{Elems: small})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 4 + 2*c.ElemLen(); len(data) != want {
		t.Errorf("encoded %d bytes, want %d", len(data), want)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.(Elements).Elems[0].Int64() != 4 || got.(Elements).Elems[1].Int64() != 9 {
		t.Error("small elements corrupted by padding")
	}
}

func TestPairsRoundTrip(t *testing.T) {
	c, g := testCodec()
	a := randElems(t, g, 5, 10)
	b := randElems(t, g, 5, 11)
	got := roundTrip(t, c, Pairs{A: a, B: b}).(Pairs)
	for i := range a {
		if got.A[i].Cmp(a[i]) != 0 || got.B[i].Cmp(b[i]) != 0 {
			t.Fatalf("pair %d mismatch", i)
		}
	}
}

func TestTriplesRoundTrip(t *testing.T) {
	c, g := testCodec()
	a := randElems(t, g, 4, 20)
	b := randElems(t, g, 4, 21)
	cc := randElems(t, g, 4, 22)
	got := roundTrip(t, c, Triples{A: a, B: b, C: cc}).(Triples)
	for i := range a {
		if got.A[i].Cmp(a[i]) != 0 || got.B[i].Cmp(b[i]) != 0 || got.C[i].Cmp(cc[i]) != 0 {
			t.Fatalf("triple %d mismatch", i)
		}
	}
}

func TestExtPairsRoundTrip(t *testing.T) {
	c, g := testCodec()
	elems := randElems(t, g, 3, 30)
	exts := [][]byte{[]byte("alpha"), {}, []byte("a longer ext(v) record payload")}
	got := roundTrip(t, c, ExtPairs{Elem: elems, Ext: exts}).(ExtPairs)
	for i := range elems {
		if got.Elem[i].Cmp(elems[i]) != 0 {
			t.Fatalf("extpair elem %d mismatch", i)
		}
		if string(got.Ext[i]) != string(exts[i]) {
			t.Fatalf("extpair ext %d mismatch", i)
		}
	}
}

func TestErrorMsgRoundTrip(t *testing.T) {
	c, _ := testCodec()
	got := roundTrip(t, c, ErrorMsg{Text: "peer failure: group mismatch"}).(ErrorMsg)
	if got.Text != "peer failure: group mismatch" {
		t.Errorf("text = %q", got.Text)
	}
}

func TestLengthMismatches(t *testing.T) {
	c, g := testCodec()
	a := randElems(t, g, 2, 40)
	b := randElems(t, g, 3, 41)
	if _, err := c.Encode(Pairs{A: a, B: b}); err == nil {
		t.Error("mismatched Pairs accepted")
	}
	if _, err := c.Encode(Triples{A: a, B: a, C: b}); err == nil {
		t.Error("mismatched Triples accepted")
	}
	if _, err := c.Encode(ExtPairs{Elem: a, Ext: [][]byte{{1}}}); err == nil {
		t.Error("mismatched ExtPairs accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	c, g := testCodec()
	valid, err := c.Encode(Elements{Elems: randElems(t, g, 3, 50)})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"bad kind", []byte{0xEE, 0, 0, 0, 0}, ErrBadKind},
		{"truncated body", valid[:len(valid)-5], ErrTruncated},
		{"trailing bytes", append(append([]byte(nil), valid...), 0x00), ErrTrailing},
		{"short header", []byte{byte(KindHeader), 1, 2}, ErrTruncated},
		{"truncated count", []byte{byte(KindElements), 0, 0}, ErrTruncated},
	}
	for _, tc := range cases {
		if _, err := c.Decode(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecodeRejectsHugeCount(t *testing.T) {
	c, _ := testCodec()
	data := []byte{byte(KindElements), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := c.Decode(data); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestDecodeExtPairTruncatedExt(t *testing.T) {
	c, g := testCodec()
	data, err := c.Encode(ExtPairs{Elem: randElems(t, g, 1, 60), Ext: [][]byte{[]byte("hello")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(data[:len(data)-2]); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestDecodeNeverPanicsProperty(t *testing.T) {
	c, _ := testCodec()
	f := func(data []byte) bool {
		_, _ = c.Decode(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKindAndProtocolStrings(t *testing.T) {
	kinds := []Kind{KindHeader, KindElements, KindPairs, KindTriples, KindExtPairs, KindError, Kind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("Kind(%d).String() empty", k)
		}
	}
	protos := []Protocol{ProtoIntersection, ProtoEquijoin, ProtoIntersectionSize, ProtoEquijoinSize, ProtoNaiveHash, Protocol(99)}
	for _, p := range protos {
		if p.String() == "" {
			t.Errorf("Protocol(%d).String() empty", p)
		}
	}
}

func TestGroupDigestDistinguishesGroups(t *testing.T) {
	a := GroupDigest(group.MustBuiltin(group.Bits256))
	b := GroupDigest(group.MustBuiltin(group.Bits512))
	if a == b {
		t.Error("distinct groups share a digest")
	}
}

// TestGoldenVectors pins the exact byte layouts documented in
// DESIGN.md Section 10 ("Wire-format reference").  Any change to an
// encoding must update both this test and the spec.  The 64-bit
// builtin group keeps ElementLen at 8 so the vectors stay readable.
func TestGoldenVectors(t *testing.T) {
	g := group.MustBuiltin(group.Bits64)
	c := NewCodec(g)
	if got := g.ElementLen(); got != 8 {
		t.Fatalf("ElementLen = %d, want 8", got)
	}
	e := func(v int64) *big.Int { return big.NewInt(v) }

	digest := GroupDigest(g)
	header := Header{
		Protocol:    ProtoEquijoin,
		GroupBits:   64,
		GroupDigest: digest,
		SetSize:     0x0102030405060708,
		SetVersion:  0x1122334455667788,
		TraceID: [16]byte{0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8,
			0xB1, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7, 0xB8},
		SpanID: 0xC1C2C3C4C5C6C7C8,
	}
	wantHeader := []byte{
		1,           // kind
		2,           // protocol: equijoin
		0, 0, 0, 64, // group bits
	}
	wantHeader = append(wantHeader, digest[:]...)                                   // offsets 6-37
	wantHeader = append(wantHeader, 1, 2, 3, 4, 5, 6, 7, 8)                         // set size, offsets 38-45
	wantHeader = append(wantHeader, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88) // set version, 46-53
	wantHeader = append(wantHeader, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8,
		0xB1, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7, 0xB8) // trace id, offsets 54-69
	wantHeader = append(wantHeader, 0xC1, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8) // span id, offsets 70-77

	cases := []struct {
		name string
		msg  Message
		want []byte
	}{
		{"header", header, wantHeader},
		{"elements", Elements{Elems: []*big.Int{e(0x0102), e(3)}}, []byte{
			2,          // kind
			0, 0, 0, 2, // entry count
			0, 0, 0, 0, 0, 0, 1, 2,
			0, 0, 0, 0, 0, 0, 0, 3,
		}},
		{"pairs", Pairs{A: []*big.Int{e(1), e(3)}, B: []*big.Int{e(2), e(4)}}, []byte{
			3,          // kind
			0, 0, 0, 2, // entry count (a pair is one entry)
			0, 0, 0, 0, 0, 0, 0, 1, // a0
			0, 0, 0, 0, 0, 0, 0, 2, // b0
			0, 0, 0, 0, 0, 0, 0, 3, // a1
			0, 0, 0, 0, 0, 0, 0, 4, // b1
		}},
		{"triples", Triples{A: []*big.Int{e(1)}, B: []*big.Int{e(2)}, C: []*big.Int{e(3)}}, []byte{
			4,          // kind
			0, 0, 0, 1, // entry count
			0, 0, 0, 0, 0, 0, 0, 1,
			0, 0, 0, 0, 0, 0, 0, 2,
			0, 0, 0, 0, 0, 0, 0, 3,
		}},
		{"extpairs", ExtPairs{Elem: []*big.Int{e(5)}, Ext: [][]byte{[]byte("hi")}}, []byte{
			5,          // kind
			0, 0, 0, 1, // entry count
			0, 0, 0, 0, 0, 0, 0, 5, // element
			0, 0, 0, 2, // ext length
			'h', 'i',
		}},
		{"error", ErrorMsg{Text: "no"}, []byte{
			6,          // kind
			0, 0, 0, 2, // length
			'n', 'o',
		}},
		{"stream begin", StreamBegin{Inner: KindPairs, Count: 7}, []byte{
			7,          // kind
			3,          // inner kind: pairs
			0, 0, 0, 7, // total entry count
		}},
		{"stream chunk", StreamChunk{Elems: []*big.Int{e(1), e(2)}}, []byte{
			8,          // kind
			0, 0, 0, 2, // elements in this chunk
			0, 0, 0, 0, 0, 0, 0, 1,
			0, 0, 0, 0, 0, 0, 0, 2,
		}},
		{"stream ext chunk", StreamExtChunk{Elem: []*big.Int{e(9)}, Ext: [][]byte{{0xAB}}}, []byte{
			9,          // kind
			0, 0, 0, 1, // entries in this chunk
			0, 0, 0, 0, 0, 0, 0, 9,
			0, 0, 0, 1, // ext length
			0xAB,
		}},
		{"stream end", StreamEnd{Chunks: 3}, []byte{
			10,         // kind
			0, 0, 0, 3, // chunk count
		}},
		{"subscribe", Subscribe{FromVersion: 0x0102030405060708}, []byte{
			11,                     // kind
			1, 2, 3, 4, 5, 6, 7, 8, // from-version
		}},
		{"sub update", SubUpdate{
			From: 7, To: 9, HasExt: true,
			Upserts:   []*big.Int{e(5)},
			UpsertExt: [][]byte{{0xCD}},
			Deleted:   []*big.Int{e(6)},
		}, []byte{
			12,                     // kind
			0, 0, 0, 0, 0, 0, 0, 7, // from
			0, 0, 0, 0, 0, 0, 0, 9, // to
			1,          // ext flag
			0, 0, 0, 1, // upsert count
			0, 0, 0, 0, 0, 0, 0, 5, // upsert element
			0, 0, 0, 1, // ext length
			0xCD,
			0, 0, 0, 1, // delete count
			0, 0, 0, 0, 0, 0, 0, 6, // deleted element
		}},
		{"sub update bare", SubUpdate{
			From: 1, To: 2,
			Upserts: []*big.Int{e(5)},
			Deleted: nil,
		}, []byte{
			12,                     // kind
			0, 0, 0, 0, 0, 0, 0, 1, // from
			0, 0, 0, 0, 0, 0, 0, 2, // to
			0,          // ext flag
			0, 0, 0, 1, // upsert count
			0, 0, 0, 0, 0, 0, 0, 5, // upsert element
			0, 0, 0, 0, // delete count
		}},
		{"sub ack", SubAck{Version: 9}, []byte{
			13,                     // kind
			0, 0, 0, 0, 0, 0, 0, 9, // version
		}},
		{"sub end", SubEnd{Code: SubEndClient}, []byte{
			14, // kind
			1,  // code: client done
		}},
	}
	for _, tc := range cases {
		data, err := c.Encode(tc.msg)
		if err != nil {
			t.Errorf("%s: Encode: %v", tc.name, err)
			continue
		}
		if !bytes.Equal(data, tc.want) {
			t.Errorf("%s: encoding diverges from DESIGN.md Section 10\n got %x\nwant %x", tc.name, data, tc.want)
		}
		if _, err := c.Decode(data); err != nil {
			t.Errorf("%s: Decode: %v", tc.name, err)
		}
	}
}
