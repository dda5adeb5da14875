package bench

import (
	"context"
	"fmt"

	"minshare/internal/group"
)

// definition binds a workload name to its set-up: everything between
// workload start and the first timed op.
type definition struct {
	name  string
	setUp func(ctx context.Context, e *env) (world, error)
}

// checked is the verdict on one finished op: its own error, else the
// comparison with the plaintext oracle.
func checked(out outcome) error {
	if out.err != nil {
		return out.err
	}
	return out.check()
}

// pipeDefinition is the set-up shared by the in-process workloads:
// generate the world from the seed, then run one untimed op of it, so
// that lazy initialisation (curve tables, the mux, the link model's
// goroutines) and heap growth are behind the first timed op.
func pipeDefinition[P any](name string, build func(*env, *valueGen, P) *pipeWorld, p P) definition {
	return definition{name, func(ctx context.Context, e *env) (world, error) {
		w := build(e, newValueGen(newRNG(e.seed, name)), p)
		if err := checked(w.op(ctx, 0, noOp)); err != nil {
			return nil, fmt.Errorf("bench: warm-up op: %w", err)
		}
		return w, nil
	}}
}

func serveDefinition(name string, p serveParams) definition {
	return definition{name, func(ctx context.Context, e *env) (world, error) {
		return newServeWorld(ctx, e, newRNG(e.seed, name), p)
	}}
}

func standingDefinition(name string, p standingParams) definition {
	return definition{name, func(ctx context.Context, e *env) (world, error) {
		return newStandingWorld(ctx, e, newRNG(e.seed, name), p)
	}}
}

// definitions returns the six workloads at their normative sizes.
func definitions() []definition {
	ec, qr := group.Backend(group.EC25519()), group.Backend(group.Default())
	return []definition{
		pipeDefinition(IsectECPipe, newIsectWorld,
			isectParams{backend: ec, nR: 8192, nS: 8192, shared: 4096}),
		pipeDefinition(FourQRPipe, newFourWorld,
			fourParams{backend: qr, n: 256, shared: 128, extLen: 64, draws: 256, distinctR: 96, distinctS: 64, sharedDistinct: 32}),
		pipeDefinition(JoinT1Stream, newJoinWorld,
			joinParams{backend: ec, nR: 200, nS: 2000, shared: 100, extLen: 256, chunk: 256}),
		pipeDefinition(IsectECShard4, newIsectWorld,
			isectParams{backend: ec, nR: 4096, nS: 4096, shared: 2048, chunk: 512, shards: 4}),
		serveDefinition(ServeWarmTCP,
			serveParams{backend: ec, rows: 256, nR: 8, hits: 4, clients: 2, pool: 16}),
		standingDefinition(StandingChurn,
			standingParams{backend: ec, rows: 8192, nR: 128, del: 82, ins: 82, touch: 20}),
	}
}

func lookup(name string) (definition, error) {
	for _, d := range definitions() {
		if d.name == name {
			return d, nil
		}
	}
	return definition{}, fmt.Errorf("bench: unknown workload %q", name)
}
