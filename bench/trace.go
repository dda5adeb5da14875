package bench

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records one span at every layer boundary the benchmark
// can reach from outside the program: {kind, start, end, parent, op}.
// Spans stay in memory (pointer-free, so the collector never scans them)
// and are aggregated — and optionally written as a Chrome trace — only
// after the run ends.

// kind names what a span timed.  The string form is the metric prefix.
type kind uint8

const (
	kOp kind = iota
	kIntersection
	kEquijoin
	kIntersectionSize
	kEquijoinSize
	kReceiver
	kSender
	kApply
	kContains
	kMapToElement
	kEncrypt
	kDecrypt
	kKeygen
	kKencEncrypt
	kKencDecrypt
	kSend
	kRecv
	kDial
	kMutation
	kDeltaSince
)

var kindNames = [...]string{
	kOp:               "op",
	kIntersection:     "core.intersection",
	kEquijoin:         "core.equijoin",
	kIntersectionSize: "core.intersection_size",
	kEquijoinSize:     "core.equijoin_size",
	kReceiver:         "core.receiver",
	kSender:           "core.sender",
	kApply:            "group.apply",
	kContains:         "group.contains",
	kMapToElement:     "group.map_to_element",
	kEncrypt:          "commutative.encrypt",
	kDecrypt:          "commutative.decrypt",
	kKeygen:           "commutative.keygen",
	kKencEncrypt:      "kenc.encrypt",
	kKencDecrypt:      "kenc.decrypt",
	kSend:             "transport.send",
	kRecv:             "transport.recv",
	kDial:             "transport.tcp.dial",
	kMutation:         "reldb.mutation",
	kDeltaSince:       "reldb.delta_since",
}

// owner says which layer's call encloses a group span.  The program
// takes its backend in four places (Config.Group, the scheme, the
// oracle, the payload cipher); each gets its own decorator instance, so
// the enclosing layer of every group call is known by construction.
type owner uint8

const (
	viaCore owner = iota
	viaCommutative
	viaOracle
	viaKenc
)

var ownerNames = [...]string{viaCore: "core", viaCommutative: "commutative", viaOracle: "oracle", viaKenc: "kenc"}

// role is the protocol party a span ran under.
type role uint8

const (
	roleNone role = iota
	roleReceiver
	roleSender
)

var roleNames = [...]string{roleNone: "", roleReceiver: "receiver", roleSender: "sender"}

// noOp marks spans recorded outside any timed op: set-up sessions and the
// server side of a TCP workload, which cannot know the client's op id.
const noOp = -1

// span is one timed interval.  start and end are nanoseconds since the
// tracer's epoch; parent is the id of the span that caused it (0 = none).
type span struct {
	id, parent int32
	op         int32
	kind       kind
	via        owner
	role       role
	start, end int64
	bytes      int64 // frame or plaintext length, where the kind carries one
	aux        int64 // kenc.encrypt: ciphertext length
}

func (s *span) dur() int64 { return s.end - s.start }

type tracer struct {
	epoch  time.Time
	nextID atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// scope is where a decorator's spans land: the tracer, the span that
// caused them, and the op and role they belong to.
type scope struct {
	tr     *tracer
	parent int32
	op     int32
	role   role
}

// leaf records a finished span that has no children of its own.
func (sc scope) leaf(k kind, via owner, start, bytes, aux int64) {
	sc.tr.add(span{
		id: sc.tr.nextID.Add(1), parent: sc.parent, op: sc.op,
		kind: k, via: via, role: sc.role,
		start: start, end: sc.tr.now(), bytes: bytes, aux: aux,
	})
}

// open starts a span that will have children: it returns the scope the
// children record under and the function that ends the span.
func (sc scope) open(k kind, r role) (scope, func()) {
	id := sc.tr.nextID.Add(1)
	start := sc.tr.now()
	child := scope{tr: sc.tr, parent: id, op: sc.op, role: r}
	return child, func() {
		sc.tr.add(span{id: id, parent: sc.parent, op: sc.op, kind: k, role: r, start: start, end: sc.tr.now()})
	}
}

// agg is the census of a set of spans: how many, how long in total, and
// the bytes they carried.
type agg struct {
	n, ns, bytes, aux int64
}

func (a agg) busy() float64 { return float64(a.ns) / 1e9 }

// sum aggregates every span whose end falls in [lo, hi] and that match
// accepts.  Windowing by end time (rather than by op id) is what lets
// server-side spans, which carry no op id, be attributed to a phase.
func (t *tracer) sum(lo, hi int64, match func(*span) bool) agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	var a agg
	for i := range t.spans {
		s := &t.spans[i]
		if s.end < lo || s.end > hi || !match(s) {
			continue
		}
		a.n++
		a.ns += s.dur()
		a.bytes += s.bytes
		a.aux += s.aux
	}
	return a
}

func ofKind(k kind) func(*span) bool { return func(s *span) bool { return s.kind == k } }

// selfTime is a span's duration minus the part of its interval that its
// children cover.  Children may overlap one another (parallel workers)
// and may stick out of the parent; only the union inside [start, end)
// counts.
func selfTime(start, end int64, children [][2]int64) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i][0] < children[j][0] })
	covered, cursor := int64(0), start
	for _, c := range children {
		lo, hi := max(c[0], cursor), min(c[1], end)
		if hi > lo {
			covered += hi - lo
			cursor = hi
		}
	}
	return (end - start) - covered
}

// selfOf sums selfTime over every span of kind k ending in [lo, hi],
// using the spans that name it as parent as its children.
func (t *tracer) selfOf(lo, hi int64, k kind) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	for i := range t.spans {
		if s := &t.spans[i]; s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	var total int64
	for i := range t.spans {
		s := &t.spans[i]
		if s.kind == k && s.end >= lo && s.end <= hi {
			total += selfTime(s.start, s.end, children[s.id])
		}
	}
	return total
}

// writeChrome writes every span as a Chrome trace_event "X" record
// (chrome://tracing, ui.perfetto.dev).  Each op is a process row and each
// role a thread row, so one op's receiver and sender line up.  Only
// kinds, ids, times and byte counts are written — never a value, key or
// ciphertext.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i := range t.spans {
		s := &t.spans[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		name := kindNames[s.kind]
		if s.kind == kApply || s.kind == kContains || s.kind == kMapToElement {
			name += " (" + ownerNames[s.via] + ")"
		}
		fmt.Fprintf(bw, "\n"+`{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"id":%d,"parent":%d,"role":%q,"bytes":%d}}`,
			name, float64(s.start)/1e3, float64(s.dur())/1e3, s.op+2, s.role, s.id, s.parent, roleNames[s.role], s.bytes)
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}
