package analysis

import (
	"fmt"
	"go/types"
	"strings"
)

// transportPath is the package whose Send methods put bytes on the
// wire.
const transportPath = "minshare/internal/transport"

// wirePath is the framing package whose Codec serializes messages.
const wirePath = "minshare/internal/wire"

// leakagePath is the leakage-accounting package: its functions are the
// suite's declassifiers — routing a value through them is the explicit,
// reviewable statement that disclosing it is a deliberate protocol
// decision (§4 of the paper quantifies exactly this).
const leakagePath = "minshare/internal/leakage"

// corePath is the protocol package whose exported entry points take the
// parties' raw sets.
const corePath = "minshare/internal/core"

// LeakFlow statically proves the paper's minimal-disclosure contract
// (§4.1): the only information a party may emit is what the protocol
// defines — commutatively encrypted set images, oracle-hashed
// identifiers, and the declared result.
//
// It runs the interprocedural taint engine (taint.go) over the whole
// module.  Sources are raw secret material: the parties' input sets
// before oracle hashing (the `values`/`records` parameters of the core
// entry points, and DeltaSource churn rows), raw key exponents
// (Key.Exponent, Scalar.Big, Group.RandomExponent/InvExponent), and
// every value whose type embeds commutative.Key, commutative.CachedSet
// or group.Scalar.  Sinks are the ways bytes leave the process:
// transport Send methods, the wire Codec encoders, the fmt/log/slog
// formatting surface, span annotations and the flight recorder.
// Sanitizers clear taint: applying the commutative encryption f_e
// (§3.2), hashing through the random oracle h (§3.1), the key-encrypted
// payload cipher (§5.3), and the leakage package's explicit
// declassifiers.  Results of the core protocol entry points are the
// protocol's permitted output and arrive declassified at callers.
//
// Any remaining source→sink path — across any number of helper calls,
// struct fields, channels, closures or goroutines — is a finding; the
// full call chain is retrievable with `psilint -why file:line`.
//
// Division of labor with secretlog: an argument whose static type
// embeds a secret type and that is passed directly to a formatting or
// trace sink is secretlog's finding (a local, type-level fact) and is
// not re-reported here; leakflow owns every flow secretlog cannot see —
// laundered through interface{} or helper calls, carried through
// fields, or reaching the transport instead of a log line.
var LeakFlow = &Analyzer{
	Name: "leakflow",
	Doc: "no unsanitized secret (raw set element, key material, cached " +
		"ciphertext state) may flow — through any call chain, field, channel " +
		"or goroutine — into transport sends, wire encoders, formatting, or " +
		"trace export; sanitizers are the commutative encryption, the oracle " +
		"hash, the payload cipher, and leakage.* declassification",
	RunModule: runLeakFlow,
}

func runLeakFlow(pass *Pass) {
	eng := runTaint(pass.Pkgs, leakflowConfig())
	for _, f := range eng.findings {
		chain := eng.chainFor(f)
		via := eng.viaNames(f)
		if via == "" {
			pass.reportPosition(f.pos, chain,
				"unsanitized flow of %s into %s", f.src.desc, f.hop.sink)
		} else {
			pass.reportPosition(f.pos, chain,
				"unsanitized flow of %s into %s (via %s)", f.src.desc, f.hop.sink, via)
		}
	}
}

// leakflowConfig declares the minimal-disclosure policy for this
// module.
func leakflowConfig() *taintConfig {
	return &taintConfig{
		sink:                leakSink,
		sanitizer:           leakSanitizer,
		sourceCall:          leakSourceCall,
		sourceParams:        leakSourceParams,
		declassifiedResults: leakDeclassified,
		benign:              leakBenign,
	}
}

// leakSink classifies the module's egress points.
func leakSink(f *types.Func) (string, bool, bool) {
	// The observability export surface: formatting-class (secretlog
	// owns directly secret-typed arguments there).
	if isTraceExportSink(f) {
		return "(*obs.Span).Annotate (trace export)", true, true
	}
	if isFormattingSink(f) {
		return sinkName(f), true, true
	}
	if p, r, ok := recvNamed(f); ok {
		// Anything with a Send method in the transport package puts a
		// frame on the network: Conn implementations, the mux, the
		// latency decorators — and the Conn interface method itself.
		if p == transportPath && f.Name() == "Send" {
			return "transport Send (the wire)", false, true
		}
		// The wire codec: serialization is not encryption, so encoding
		// a secret-bearing message is already the leak.
		if p == wirePath && r == "Codec" && strings.HasPrefix(f.Name(), "Encode") {
			return "(*wire.Codec)." + f.Name(), false, true
		}
		// The flight recorder retains snapshots for /debug export.
		if p == obsPath && r == "FlightRecorder" && f.Name() == "Add" {
			return "(*obs.FlightRecorder).Add (flight recorder)", false, true
		}
	}
	return "", false, false
}

// leakSanitizer lists the operations whose results the paper's security
// argument (§5, Lemmas 1–3) makes safe to disclose, plus the explicit
// declassifiers.
func leakSanitizer(f *types.Func) bool {
	// leakage.*: the declassification package — every result it
	// produces is a quantified, reviewed disclosure.
	if funcPkgPath(f) == leakagePath {
		return true
	}
	if p, _, ok := recvNamed(f); ok && p == leakagePath {
		return true
	}
	name := f.Name()
	if p, r, ok := recvNamed(f); ok {
		switch p {
		case commutativePath:
			// The commutative encryption f_e and its inverse — any
			// Scheme implementation (PowerFn, Counting, observed
			// wrappers) — and the cached ciphertext accessors (a
			// CachedSet's elements ARE the f_e images).
			if name == "Encrypt" || name == "Decrypt" {
				return true
			}
			if r == "CachedSet" {
				switch name {
				case "Elems", "Payload", "Len", "MemoryBytes", "ApplyDelta":
					return true
				}
			}
		case groupPath:
			// Backend exponentiation is f_e's core: its output is the
			// encrypted image.
			if name == "Apply" || name == "Exp" {
				return true
			}
		case "minshare/internal/oracle":
			// The random oracle h: hashed identifiers are the protocol's
			// wire representation of set elements.
			if strings.HasPrefix(name, "Hash") {
				return true
			}
		case "minshare/internal/kenc":
			// The key-encryption cipher K(kappa, payload): Encrypt is
			// the sanitizer; Decrypt recovers the receiver's permitted
			// payload output (§5.3 — only matched keys decrypt).
			if name == "Encrypt" || name == "Decrypt" {
				return true
			}
		}
		return false
	}
	// Package-level helpers of the commutative package: the parallel and
	// streaming encryption drivers.
	if funcPkgPath(f) == commutativePath {
		switch name {
		case "EncryptAll", "EncryptAllAt", "DecryptAll", "DecryptAllAt", "EncryptStream":
			return true
		}
	}
	return false
}

// leakSourceCall classifies calls producing raw secret material.
func leakSourceCall(f *types.Func) string {
	if desc := secretExtractor(f); desc != "" {
		return desc
	}
	// Standing-query churn: DeltaSince hands back raw pre-hash rows.
	if p, r, ok := recvNamed(f); ok && p == corePath && r == "DeltaSource" && f.Name() == "DeltaSince" {
		return "a raw set delta (core.DeltaSource.DeltaSince)"
	}
	return ""
}

// coreEntryPoint reports whether f is one of the exported protocol
// entry points taking a party's raw set.
func coreEntryPoint(f *types.Func) bool {
	if funcPkgPath(f) != corePath || f.Type().(*types.Signature).Recv() != nil {
		return false
	}
	switch f.Name() {
	case "IntersectionReceiver", "IntersectionSender",
		"IntersectionSizeReceiver", "IntersectionSizeSender",
		"EquijoinReceiver", "EquijoinSender",
		"EquijoinSizeReceiver", "EquijoinSizeSender",
		"NaiveHashReceiver", "NaiveHashSender",
		"IntersectionReceiverStanding", "IntersectionSenderStanding",
		"EquijoinReceiverStanding", "EquijoinSenderStanding",
		"ThirdPartyPartyA", "ThirdPartyPartyB", "ThirdPartyAnalyst":
		return true
	}
	return false
}

// leakSourceParams seeds the raw-input parameters of the core entry
// points as concrete sources: the party's set before oracle hashing.
func leakSourceParams(f *types.Func) map[string]string {
	if !coreEntryPoint(f) {
		return nil
	}
	return map[string]string{
		"values":  "a raw set element (pre-hash protocol input)",
		"records": "a raw join record (pre-hash protocol input)",
	}
}

// leakDeclassified marks functions whose results are the protocol's
// declared output: the entry points themselves (an intersection result
// IS the permitted disclosure) and the standing-query result accessors
// that surface the same data incrementally.
func leakDeclassified(f *types.Func) bool {
	if coreEntryPoint(f) {
		return true
	}
	if p, r, ok := recvNamed(f); ok && p == corePath {
		if r == "StandingQuery" {
			return true
		}
	}
	return false
}

// leakBenign lists external accessors whose results never carry their
// receiver's taint: sizes and kind tags are permitted information (the
// paper discloses |VR|, |VS| by design).
func leakBenign(f *types.Func) bool {
	if p, _, ok := recvNamed(f); ok && p == wirePath {
		switch f.Name() {
		case "Kind", "String":
			return true
		}
	}
	return false
}

// viaNames renders the intermediate callee names of a finding's chain
// ("send → Encode"), or "" for a direct flow.
func (e *taintEngine) viaNames(f taintFinding) string {
	var names []string
	hop := f.hop
	for i := 0; hop != nil && hop.callee != nil && i < 32; i++ {
		names = append(names, hop.callee.fn.Name())
		next := e.sums[hop.callee].sinks[hop.calleeSlot]
		hop = next
	}
	return strings.Join(names, " → ")
}

// chainFor reconstructs the shortest source→sink path of a finding,
// one "file:line: step" entry per hop — the -why output.
func (e *taintEngine) chainFor(f taintFinding) []string {
	out := []string{
		fmt.Sprintf("%s:%d: source: %s", f.src.pos.Filename, f.src.pos.Line, f.src.desc),
	}
	hop := f.hop
	for i := 0; hop != nil && i < 32; i++ {
		if hop.callee == nil {
			out = append(out, fmt.Sprintf("%s:%d: sink: %s", hop.pos.Filename, hop.pos.Line, hop.sink))
			return out
		}
		out = append(out, fmt.Sprintf("%s:%d: tainted argument passes into %s",
			hop.pos.Filename, hop.pos.Line, hop.callee.fn.Name()))
		hop = e.sums[hop.callee].sinks[hop.calleeSlot]
	}
	return out
}
