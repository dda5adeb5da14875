package bench

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"minshare/internal/core"
)

// Seeded input generation.  Everything a workload feeds the program —
// values, overlap, duplicate distribution, ext bytes, churn schedule —
// derives from the seed through one PCG stream per workload, and the
// plaintext answer (the oracle every op is checked against) is computed
// here, at generation time, from the plaintext alone.

func newRNG(seed uint64, workload string) *rand.Rand {
	// The stream constant separates workloads, so two workloads at one
	// seed do not share values.
	var stream uint64
	for _, c := range []byte(workload) {
		stream = stream*131 + uint64(c)
	}
	return rand.New(rand.NewPCG(seed, stream))
}

// valueGen mints distinct values: a tag plus 64 random bits in hex, the
// shape of an opaque customer or document identifier.
type valueGen struct {
	rng  *rand.Rand
	seen map[string]struct{}
}

func newValueGen(rng *rand.Rand) *valueGen {
	return &valueGen{rng: rng, seen: make(map[string]struct{})}
}

func (g *valueGen) next(tag string) []byte {
	for {
		v := fmt.Sprintf("%s-%016x", tag, g.rng.Uint64())
		if _, dup := g.seen[v]; !dup {
			g.seen[v] = struct{}{}
			return []byte(v)
		}
	}
}

func (g *valueGen) many(tag string, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = g.next(tag)
	}
	return out
}

func (g *valueGen) bytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(g.rng.Uint32())
	}
	return out
}

func shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// setInputs is one two-party set problem with its plaintext answer.
type setInputs struct {
	vR, vS [][]byte
	// want is V_S ∩ V_R in R's input order, as the protocols return it.
	want [][]byte
}

// genSets draws |V_R| = nR and |V_S| = nS distinct values sharing
// exactly `shared`, each side shuffled.
func genSets(g *valueGen, nR, nS, shared int) setInputs {
	common := g.many("c", shared)
	vR := append(append([][]byte(nil), common...), g.many("r", nR-shared)...)
	vS := append(append([][]byte(nil), common...), g.many("s", nS-shared)...)
	shuffle(g.rng, vR)
	shuffle(g.rng, vS)
	in := setInputs{vR: vR, vS: vS}
	isCommon := make(map[string]struct{}, shared)
	for _, v := range common {
		isCommon[string(v)] = struct{}{}
	}
	for _, v := range vR {
		if _, ok := isCommon[string(v)]; ok {
			in.want = append(in.want, v)
		}
	}
	return in
}

// joinInputs is one equijoin problem: S's records carry ext bytes.
type joinInputs struct {
	vR      [][]byte
	records []core.JoinRecord
	// want holds one match per shared value, with S's ext bytes, in R's
	// input order.
	want []core.JoinMatch
}

func genJoin(g *valueGen, nR, nS, shared, extLen int) joinInputs {
	sets := genSets(g, nR, nS, shared)
	in := joinInputs{vR: sets.vR, records: make([]core.JoinRecord, nS)}
	ext := make(map[string][]byte, nS)
	for i, v := range sets.vS {
		e := g.bytes(extLen)
		in.records[i] = core.JoinRecord{Value: v, Ext: e}
		ext[string(v)] = e
	}
	for _, v := range sets.want {
		in.want = append(in.want, core.JoinMatch{Value: v, Ext: ext[string(v)]})
	}
	return in
}

// multisetInputs is one equijoin-size problem over multisets.
type multisetInputs struct {
	mR, mS [][]byte
	// wantJoin is |T_S ⋈ T_R| = Σ_v dup_R(v)·dup_S(v).
	wantJoin int
}

// genMultisets draws `draws` rows per side over distinctR / distinctS
// values sharing `shared`; every distinct value occurs at least once and
// the remaining draws are uniform, so the duplicate distribution is a
// function of the seed.
func genMultisets(g *valueGen, draws, distinctR, distinctS, shared int) multisetInputs {
	sets := genSets(g, distinctR, distinctS, shared)
	fill := func(distinct [][]byte) [][]byte {
		m := append([][]byte(nil), distinct...)
		for len(m) < draws {
			m = append(m, distinct[g.rng.IntN(len(distinct))])
		}
		shuffle(g.rng, m)
		return m
	}
	in := multisetInputs{mR: fill(sets.vR), mS: fill(sets.vS)}
	dupS := make(map[string]int)
	for _, v := range in.mS {
		dupS[string(v)]++
	}
	for _, v := range in.mR {
		in.wantJoin += dupS[string(v)]
	}
	return in
}

// The check functions compare a protocol result with the oracle.  They
// run after the timed region, never inside it.

func checkIntersection(got *core.IntersectionResult, want [][]byte, nS int) error {
	if got.SenderSetSize != nS {
		return fmt.Errorf("intersection: |V_S| = %d, want %d", got.SenderSetSize, nS)
	}
	if len(got.Values) != len(want) {
		return fmt.Errorf("intersection: %d values, want %d", len(got.Values), len(want))
	}
	for i := range want {
		if !bytes.Equal(got.Values[i], want[i]) {
			return fmt.Errorf("intersection: value %d differs from the plaintext oracle", i)
		}
	}
	return nil
}

func checkJoin(got *core.JoinResult, want []core.JoinMatch, nS int) error {
	if got.SenderSetSize != nS {
		return fmt.Errorf("equijoin: |V_S| = %d, want %d", got.SenderSetSize, nS)
	}
	if len(got.Matches) != len(want) {
		return fmt.Errorf("equijoin: %d matches, want %d", len(got.Matches), len(want))
	}
	for i := range want {
		if !bytes.Equal(got.Matches[i].Value, want[i].Value) || !bytes.Equal(got.Matches[i].Ext, want[i].Ext) {
			return fmt.Errorf("equijoin: match %d differs from the plaintext oracle", i)
		}
	}
	return nil
}

func checkSize(got *core.SizeResult, want, nS int) error {
	if got.IntersectionSize != want || got.SenderSetSize != nS {
		return fmt.Errorf("intersection-size: got %d of |V_S| = %d, want %d of %d",
			got.IntersectionSize, got.SenderSetSize, want, nS)
	}
	return nil
}

func checkJoinSize(got *core.JoinSizeResult, want, mS int) error {
	if got.JoinSize != want || got.SenderMultisetSize != mS {
		return fmt.Errorf("equijoin-size: got %d over %d rows, want %d over %d",
			got.JoinSize, got.SenderMultisetSize, want, mS)
	}
	return nil
}
