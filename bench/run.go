package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Options selects one run of one workload.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is how long the run measures.  A measured run times ops
	// for this long; a traced run splits it between an undecorated phase
	// and a traced phase.
	Seconds float64
	// Traced selects the traced run (per-layer metrics) instead of the
	// measured run (end-to-end metrics).
	Traced bool
	// TraceDir, when set on a traced run, receives <workload>.trace.json,
	// a Chrome trace of every span.
	TraceDir string
}

// Result is the outcome of one run.
type Result struct {
	// Correct is true when every op succeeded and matched the plaintext
	// oracle and, on a traced run, the program's census matched the
	// decorators' and the certified closed forms.
	Correct   bool
	Attempted int
	Failed    int
	Metrics   Metrics
	// Notes are human-readable remarks: sample counts, which percentile
	// op_p90_s holds, the first failures.
	Notes []string
}

const (
	// opTimeout bounds one op, so a wedged session fails instead of
	// hanging the run.
	opTimeout = 60 * time.Second
	// The traced run spends this share of its time on undecorated ops (the
	// base of obs.traced_overhead_share), the rest on traced ones.
	plainShare = 0.4
	// minRounds is the fewest rounds per client a phase runs, however
	// short its time.
	minRounds = 2
)

// Run executes one run.  An error means the harness itself could not
// run; failed ops are reported in the Result.
func Run(ctx context.Context, o Options) (*Result, error) {
	def, err := lookup(o.Workload)
	if err != nil {
		return nil, err
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("bench: seconds must be positive, got %v", o.Seconds)
	}
	if o.Traced {
		return runTraced(ctx, def, o)
	}
	return runMeasured(ctx, def, o)
}

// region is one timed stretch of ops.
type region struct {
	u0, u1    usage
	wireBytes int64
	outs      []outcome
}

func (r *region) wall() time.Duration { return r.u1.at.Sub(r.u0.at) }

func (r *region) values() (n int) {
	for _, o := range r.outs {
		n += o.values
	}
	return n
}

func (r *region) durations() []time.Duration {
	ds := make([]time.Duration, len(r.outs))
	for i, o := range r.outs {
		ds[i] = o.dur
	}
	return ds
}

// drive runs w's clients closed-loop for d: each client issues its next
// op only when the previous one has answered, and stops at the first
// round boundary past the deadline (never before minRounds rounds).
// Results are kept and checked by verify afterwards.
func drive(ctx context.Context, w world, e *env, d time.Duration) (region, error) {
	var r region
	var err error
	wire0 := e.wireBytes()
	if r.u0, err = sampleUsage(); err != nil {
		return r, err
	}
	deadline := r.u0.at.Add(d)
	perClient := make([][]outcome, w.clients())
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if i%w.round() == 0 && i/w.round() >= minRounds && !time.Now().Before(deadline) {
					return
				}
				octx, cancel := context.WithTimeout(ctx, opTimeout)
				out := w.op(octx, c, i)
				cancel()
				perClient[c] = append(perClient[c], out)
				if out.err != nil {
					return // the session state behind a failed op cannot be trusted
				}
			}
		}()
	}
	wg.Wait()
	if r.u1, err = sampleUsage(); err != nil {
		return r, err
	}
	r.wireBytes = e.wireBytes() - wire0
	for _, outs := range perClient {
		r.outs = append(r.outs, outs...)
	}
	return r, nil
}

// verify checks every op of r against the plaintext oracle and folds the
// verdicts into res.
func verify(res *Result, r *region) {
	for _, o := range r.outs {
		res.Attempted++
		if err := checked(o); err != nil {
			res.Failed++
			if res.Failed <= 3 {
				res.Notes = append(res.Notes, "failed op: "+err.Error())
			}
		}
	}
}

func runMeasured(ctx context.Context, def definition, o Options) (*Result, error) {
	res := &Result{Metrics: newMetrics(EndToEnd)}
	e := &env{seed: o.Seed}
	start := time.Now()
	w, err := def.setUp(ctx, e)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)
	defer w.close()

	r, err := drive(ctx, w, e, time.Duration(o.Seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	verify(res, &r)

	ops, values := float64(len(r.outs)), float64(r.values())
	durs := seconds(r.durations())
	p90, isTail := tailOrMedian(durs)
	m := res.Metrics
	m.set("setup_s", setup.Seconds())
	m.set("op_p50_s", median(durs))
	m.set("op_p90_s", p90)
	m.set("values_per_s", ratio(values, r.wall().Seconds()))
	m.set("cpu_s_per_op", ratio((r.u1.cpu-r.u0.cpu).Seconds(), ops))
	m.set("wire_bytes_per_op", ratio(float64(r.wireBytes), ops))
	m.set("allocs_per_value", ratio(float64(r.u1.mallocs-r.u0.mallocs), values))
	m.set("alloc_bytes_per_value", ratio(float64(r.u1.allocBytes-r.u0.allocBytes), values))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m.set("peak_rss_mb", rss)

	res.Notes = append(res.Notes, fmt.Sprintf("%d ops timed over %.2f s", len(r.outs), r.wall().Seconds()))
	if !isTail {
		res.Notes = append(res.Notes, fmt.Sprintf("op_p90_s holds the median: a 90th percentile needs %d samples beyond it", minBeyond))
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func runTraced(ctx context.Context, def definition, o Options) (*Result, error) {
	res := &Result{Metrics: newMetrics(PerLayer)}
	total := time.Duration(o.Seconds * float64(time.Second))
	plainTime := time.Duration(plainShare * float64(total))

	// Phase 1: the same workload undecorated, the base of the overhead
	// share.
	plainEnv := &env{seed: o.Seed}
	plainWorld, err := def.setUp(ctx, plainEnv)
	if err != nil {
		return nil, err
	}
	plain, err := drive(ctx, plainWorld, plainEnv, plainTime)
	plainWorld.close()
	if err != nil {
		return nil, err
	}
	verify(res, &plain)

	// Phase 2: a second instance with every seam decorated and every
	// session attributed to an obs session.
	e := newTracedEnv(o.Seed)
	w, err := def.setUp(ctx, e)
	if err != nil {
		return nil, err
	}
	win := window{lo: e.tr.now(), obs0: e.census()}
	traced, err := drive(ctx, w, e, total-plainTime)
	if err != nil {
		w.close()
		return nil, err
	}
	e.quiesce(ctx)
	win.hi, win.obs1 = e.tr.now(), e.census()
	verify(res, &traced)

	f := w.facts()
	rep, err := replay(ctx, e, f, win)
	w.close()
	if err != nil {
		return nil, err
	}
	problems := assemble(res.Metrics, e, f, win, &plain, &traced, rep)
	problems = append(problems, censusAgrees(e)...)
	for _, p := range problems {
		res.Notes = append(res.Notes, "census check failed: "+p)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d undecorated and %d traced ops; counts, busy times and bytes are per traced op",
		len(plain.outs), len(traced.outs)))
	res.Correct = res.Failed == 0 && len(problems) == 0

	if o.TraceDir != "" {
		if err := writeTrace(e.tr, o.TraceDir, def.name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func writeTrace(tr *tracer, dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("bench: trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return fmt.Errorf("bench: trace file: %w", err)
	}
	if err := tr.writeChrome(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("bench: writing %s: %w", f.Name(), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: writing %s: %w", f.Name(), err)
	}
	return nil
}
