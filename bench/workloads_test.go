package bench

import (
	"context"
	"testing"
	"time"

	"minshare/internal/group"
)

// tinyDefinitions are the six workloads at test sizes over the tiny test
// group: the same modes, transports and code paths, milliseconds per op.
func tinyDefinitions() []definition {
	g := group.Backend(group.TestGroup())
	return []definition{
		pipeDefinition(IsectECPipe, newIsectWorld,
			isectParams{backend: g, nR: 12, nS: 16, shared: 5}),
		pipeDefinition(FourQRPipe, newFourWorld,
			fourParams{backend: g, n: 10, shared: 4, extLen: 24, draws: 14, distinctR: 6, distinctS: 5, sharedDistinct: 3}),
		pipeDefinition(JoinT1Stream, newJoinWorld,
			joinParams{backend: g, nR: 6, nS: 14, shared: 3, extLen: 32, chunk: 4}),
		pipeDefinition(IsectECShard4, newIsectWorld,
			isectParams{backend: g, nR: 20, nS: 24, shared: 9, chunk: 3, shards: 4}),
		serveDefinition(ServeWarmTCP,
			serveParams{backend: g, rows: 20, nR: 4, hits: 2, clients: 2, pool: 3}),
		standingDefinition(StandingChurn,
			standingParams{backend: g, rows: 40, nR: 8, del: 4, ins: 4, touch: 1, churnMax: 1}),
	}
}

// TestWorkloadsAgainstOracle runs every workload end to end at test
// sizes: a measured run (set-up, timed ops, every op checked
// against the plaintext oracle) and a traced run (decorators, replays,
// and the census checks: zero cost-model residuals, the program's
// counters equal to the decorators').
func TestWorkloadsAgainstOracle(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, def := range tinyDefinitions() {
		t.Run(def.name, func(t *testing.T) {
			o := Options{Workload: def.name, Seed: 3, Seconds: 0.02}
			res, err := runMeasured(ctx, def, o)
			if err != nil {
				t.Fatalf("measured run: %v", err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("measured run: %d of %d ops failed: %v", res.Failed, res.Attempted, res.Notes)
			}
			for _, info := range EndToEnd {
				if v := res.Metrics[info.Name].Value; !(v > 0) {
					t.Errorf("measured run: %s = %v, want a positive value", info.Name, v)
				}
			}

			o.Traced, o.TraceDir = true, t.TempDir()
			res, err = runTraced(ctx, def, o)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			if !res.Correct {
				t.Fatalf("traced run is not correct: %v", res.Notes)
			}
			m := res.Metrics
			if len(m) != len(PerLayer) {
				t.Errorf("traced run reports %d metrics, the catalogue lists %d", len(m), len(PerLayer))
			}
			if m["commutative.encrypt.count"].Value == 0 || m["obs.counters.modexp"].Value != m["costmodel.ce_predicted"].Value {
				t.Errorf("C_e census: %v encrypts, obs %v, certified %v", m["commutative.encrypt.count"].Value,
					m["obs.counters.modexp"].Value, m["costmodel.ce_predicted"].Value)
			}
		})
	}
}

// TestSeedDeterminesInputs checks that a seed fixes the generated inputs
// and that different seeds give different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	gen := func(seed uint64) setInputs {
		return genSets(newValueGen(newRNG(seed, IsectECPipe)), 8, 8, 4)
	}
	a, b, c := gen(1), gen(1), gen(2)
	for i := range a.vR {
		if string(a.vR[i]) != string(b.vR[i]) {
			t.Fatalf("seed 1 generated two different receiver sets")
		}
	}
	if string(a.vR[0]) == string(c.vR[0]) {
		t.Errorf("seeds 1 and 2 generated the same first value")
	}
	m := genMultisets(newValueGen(newRNG(5, FourQRPipe)), 40, 9, 7, 3)
	if len(m.mR) != 40 || len(m.mS) != 40 || m.wantJoin == 0 {
		t.Errorf("multisets: %d and %d rows, join size %d", len(m.mR), len(m.mS), m.wantJoin)
	}
}
