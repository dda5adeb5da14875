package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name       string
		start, end int64
		children   [][2]int64
		want       int64
	}{
		{"no children", 0, 100, nil, 100},
		{"disjoint children", 0, 100, [][2]int64{{10, 20}, {50, 70}}, 70},
		{"overlapping children count once", 0, 100, [][2]int64{{10, 60}, {40, 80}}, 30},
		{"nested child adds nothing", 0, 100, [][2]int64{{10, 60}, {20, 30}}, 50},
		{"children clipped to the parent", 10, 100, [][2]int64{{0, 20}, {90, 150}}, 70},
		{"child outside the parent", 10, 100, [][2]int64{{200, 300}}, 90},
		{"unsorted children", 0, 100, [][2]int64{{50, 70}, {10, 20}}, 70},
		{"fully covered", 0, 100, [][2]int64{{0, 50}, {50, 100}}, 0},
	} {
		if got := selfTime(c.start, c.end, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerAggregates(t *testing.T) {
	tr := newTracer()
	put := func(id, parent int32, k kind, via owner, r role, start, end int64) {
		tr.add(span{id: id, parent: parent, kind: k, via: via, role: r, start: start, end: end})
	}
	put(1, 0, kReceiver, viaCore, roleReceiver, 0, 1000)
	put(2, 1, kEncrypt, viaCore, roleReceiver, 100, 400)
	put(3, 1, kApply, viaCommutative, roleReceiver, 150, 390)
	put(4, 1, kEncrypt, viaCore, roleReceiver, 300, 600) // a second worker, overlapping
	put(5, 1, kRecv, viaCore, roleReceiver, 700, 900)
	put(6, 0, kEncrypt, viaCore, roleSender, 2000, 2100) // ends outside the window below

	enc := tr.sum(0, 1000, ofKind(kEncrypt))
	if enc.n != 2 || enc.ns != 600 {
		t.Errorf("encrypt census in window = %+v, want 2 spans, 600 ns", enc)
	}
	// The receiver's children cover [100,600) and [700,900): 300 ns of self.
	if got := tr.selfOf(0, 1000, kReceiver); got != 300 {
		t.Errorf("receiver self time = %d, want 300", got)
	}

	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) != 6 || file.TraceEvents[2].Name != "group.apply (commutative)" || file.TraceEvents[2].Dur != 0.24 {
		t.Errorf("unexpected trace events: %+v", file.TraceEvents)
	}
}
