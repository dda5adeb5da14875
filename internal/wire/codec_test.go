package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"os"
	"runtime"
	"strings"
	"testing"

	"minshare/internal/group"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/codec_golden.txt from the current codec")

const goldenPath = "testdata/codec_golden.txt"

// goldenElem is the k-th test element of the given width: a fixed byte
// pattern, with the top half zero for odd k so the left-padding of a
// short element is part of what the golden pins.
func goldenElem(k, width int) *big.Int {
	b := make([]byte, width)
	for j := range b {
		if k%2 == 1 && j < width/2 {
			continue
		}
		b[j] = byte(k*31 + j*7 + 1)
	}
	return new(big.Int).SetBytes(b)
}

func goldenElems(n, width, from int) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = goldenElem(from+i, width)
	}
	return out
}

func goldenExts(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = bytes.Repeat([]byte{byte(0xE0 + i)}, 2*i) // lengths 0, 2, 4
	}
	return out
}

type goldenCase struct {
	name string
	c    *Codec
	msg  Message
}

// goldenCases lists every vector-bearing kind at n ∈ {0, 1, 3} on a
// 32-byte and a 128-byte element width, plus SubUpdate with and
// without ext.
func goldenCases() []goldenCase {
	var out []goldenCase
	for _, g := range []group.Backend{group.TestGroup(), group.MustBuiltin(group.Bits1024)} {
		c := NewCodec(g)
		w := c.ElemLen()
		add := func(name string, n int, m Message) {
			out = append(out, goldenCase{fmt.Sprintf("%s/w%d/n%d", name, w, n), c, m})
		}
		for _, n := range []int{0, 1, 3} {
			a, b, cc := goldenElems(n, w, 0), goldenElems(n, w, 10), goldenElems(n, w, 20)
			add("elements", n, Elements{Elems: a})
			add("pairs", n, Pairs{A: a, B: b})
			add("triples", n, Triples{A: a, B: b, C: cc})
			add("extpairs", n, ExtPairs{Elem: a, Ext: goldenExts(n)})
			add("stream-chunk", n, StreamChunk{Elems: a})
			add("stream-ext-chunk", n, StreamExtChunk{Elem: a, Ext: goldenExts(n)})
		}
		add("sub-update-bare", 3, SubUpdate{From: 7, To: 9,
			Upserts: goldenElems(3, w, 0), Deleted: goldenElems(2, w, 10)})
		add("sub-update-ext", 3, SubUpdate{From: 7, To: 9, HasExt: true,
			Upserts: goldenElems(3, w, 0), UpsertExt: goldenExts(3), Deleted: goldenElems(2, w, 10)})
	}
	return out
}

// TestCodecGolden pins the encoded bytes of every vector-bearing kind
// against a committed file recorded before the vector codec was
// unified: Encode must reproduce the bytes, and Decode of the bytes
// must re-encode to them.
func TestCodecGolden(t *testing.T) {
	cases := goldenCases()
	if *updateGolden {
		var buf bytes.Buffer
		for _, tc := range cases {
			data, err := tc.c.Encode(tc.msg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			fmt.Fprintf(&buf, "%s %s\n", tc.name, hex.EncodeToString(data))
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		if want[name], err = hex.DecodeString(hx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("golden file has %d entries, want %d", len(want), len(cases))
	}
	for _, tc := range cases {
		got, err := tc.c.Encode(tc.msg)
		if err != nil {
			t.Errorf("%s: Encode: %v", tc.name, err)
			continue
		}
		if !bytes.Equal(got, want[tc.name]) {
			t.Errorf("%s: encoding moved\n got %x\nwant %x", tc.name, got, want[tc.name])
			continue
		}
		m, err := tc.c.Decode(want[tc.name])
		if err != nil {
			t.Errorf("%s: Decode: %v", tc.name, err)
			continue
		}
		if back, err := tc.c.Encode(m); err != nil || !bytes.Equal(back, want[tc.name]) {
			t.Errorf("%s: decode→encode is not the identity (err %v)", tc.name, err)
		}
	}
}

// TestDecodeHostileCountBounded sends each of the eight vector
// positions a count of 2^24 with no payload behind it.  The decoder
// must refuse with ErrTruncated before allocating anything sized by
// the count.
func TestDecodeHostileCountBounded(t *testing.T) {
	c, _ := testCodec()
	count := []byte{0x01, 0, 0, 0}
	subPrefix := func(flag byte) []byte {
		return append(append([]byte{byte(KindSubUpdate)}, make([]byte, 16)...), flag)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"elements", append([]byte{byte(KindElements)}, count...)},
		{"pairs", append([]byte{byte(KindPairs)}, count...)},
		{"triples", append([]byte{byte(KindTriples)}, count...)},
		{"extpairs", append([]byte{byte(KindExtPairs)}, count...)},
		{"stream-chunk", append([]byte{byte(KindStreamChunk)}, count...)},
		{"stream-ext-chunk", append([]byte{byte(KindStreamExtChunk)}, count...)},
		{"sub-update upserts", append(subPrefix(1), count...)},
		{"sub-update deleted", append(append(subPrefix(0), 0, 0, 0, 0), count...)},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.Decode(tc.data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", tc.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: a %d-byte frame made Decode allocate %d bytes", tc.name, len(tc.data), grew)
		}
	}
}

// TestCodecAllocBudget pins the per-frame allocation cost: encoding
// sizes the frame once and fills it in place; decoding allocates the
// big.Int and its limbs per element and nothing else that grows with n.
func TestCodecAllocBudget(t *testing.T) {
	c, g := testCodec()
	const n = 1024
	msg := Elements{Elems: randElems(t, g, n, 7)}
	data, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if _, err := c.Encode(msg); err != nil {
			t.Fatal(err)
		}
	}); got > 4 {
		t.Errorf("Encode of %d elements: %.0f allocations, want <= 4", n, got)
	}
	if got := testing.AllocsPerRun(10, func() {
		if _, err := c.Decode(data); err != nil {
			t.Fatal(err)
		}
	}); got > 2*n+8 {
		t.Errorf("Decode of %d elements: %.0f allocations, want <= %d", n, got, 2*n+8)
	}
}
