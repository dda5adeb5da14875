// Command psibench is the repository's benchmark driver.
//
//	go run ./cmd/psibench                      all six workloads: measured set, then traced set
//	go run ./cmd/psibench -aa                  the measured set twice, compared against each bound
//	go run ./cmd/psibench -workload NAME       one workload in this process (what BENCHMARK.json runs)
//
// Without -workload the driver re-executes itself once per workload and
// run, so peak RSS, CPU, collector state and set-up time belong to one
// workload.  Every run checks each op against a plaintext oracle and
// exits non-zero on any mismatch, error, or cost-model residual.  The
// last line a single-workload run prints is its result as one JSON
// object; see bench/README.md for the catalogue.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"minshare/bench"
)

// resultLine is the last line of a single-workload run's output.
type resultLine struct {
	Correct   bool          `json:"correct"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Metrics   bench.Metrics `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload, in this process (default: all six, each in a child process)")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		secs     = flag.Float64("seconds", 10, "how long one run measures")
		trace    = flag.Int("trace", 0, "with -workload: 1 for the traced run (per-layer metrics), 0 for the measured run (end-to-end metrics)")
		out      = flag.String("out", "", "directory for the traced runs' Chrome traces, <workload>.trace.json (default: none written)")
		aa       = flag.Bool("aa", false, "run the measured set twice on this binary and compare every end-to-end metric against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	switch {
	case *workload != "":
		err = runOne(ctx, bench.Options{Workload: *workload, Seed: *seed, Seconds: *secs, Traced: *trace == 1, TraceDir: *out})
	case *aa:
		err = runAA(ctx, *seed, *secs)
	default:
		err = runAll(ctx, *seed, *secs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "psibench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints every metric by
// name with its unit, then the result line.
func runOne(ctx context.Context, o bench.Options) error {
	fmt.Printf("psibench workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		o.Workload, o.Seed, o.Seconds, b2i(o.Traced), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	res, err := bench.Run(ctx, o)
	if err != nil {
		return err
	}
	catalogue := bench.EndToEnd
	if o.Traced {
		catalogue = bench.PerLayer
	}
	for _, info := range catalogue {
		fmt.Printf("  %-46s %16.9g %s\n", info.Name, res.Metrics[info.Name].Value, info.Unit)
	}
	fmt.Printf("  %-46s %16.9g %s\n", "failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)), "1")
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
	line, err := json.Marshal(resultLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return fmt.Errorf("encoding the result line: %w", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed or a census check did not hold", o.Workload, res.Failed, res.Attempted)
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commit is the VCS revision being measured: the one the build recorded
// (a plain go build), else HEAD of the repository the run starts in.
// go run and bench/run.sh record none, and both run from the repository
// root; a checkout that is not a repository reports "unknown", and git
// is not started there.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

// child re-executes this binary for one workload and run, streaming its
// report through and returning its parsed result line.
func child(ctx context.Context, name string, seed uint64, secs float64, traced bool, out string) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, fmt.Errorf("locating the running binary: %w", err)
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", strconv.Itoa(b2i(traced)),
	}
	if out != "" {
		args = append(args, "-out", out)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var captured bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &captured)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(captured.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return resultLine{}, fmt.Errorf("%s: %w", name, runErr)
		}
		return resultLine{}, fmt.Errorf("%s: parsing the result line: %w", name, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", name, runErr)
	}
	return res, nil
}

// runSet runs all six workloads once, each in its own process.
func runSet(ctx context.Context, seed uint64, secs float64, traced bool, out string) (map[string]resultLine, error) {
	results := make(map[string]resultLine)
	var firstErr error
	for _, w := range bench.Workloads {
		res, err := child(ctx, w.Name, seed, secs, traced, out)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		results[w.Name] = res
		if ctx.Err() != nil {
			break
		}
	}
	return results, firstErr
}

func runAll(ctx context.Context, seed uint64, secs float64, out string) error {
	fmt.Println("== measured set: end-to-end metrics, obs detached, no decorators")
	_, err := runSet(ctx, seed, secs, false, "")
	fmt.Println("== traced set: per-layer metrics")
	if _, terr := runSet(ctx, seed, secs, true, out); err == nil {
		err = terr
	}
	if err != nil {
		return err
	}
	fmt.Println("== every op matched the plaintext oracle; cost-model residuals are zero")
	return nil
}

// setupFloorS is the absolute gap, in seconds, under which two setup_s
// readings agree whatever their ratio: ISSUE 11 bounds the metric at a
// share "or 50 ms", because serve_warm_tcp's set-up is a few hundred
// milliseconds at process start.  BENCHMARK.json can carry only the share.
const setupFloorS = 0.05

// runAA is the A/A check: two measured sets of the same binary must
// agree, workload by workload and metric by metric, within the metric's
// own bound.
func runAA(ctx context.Context, seed uint64, secs float64) error {
	fmt.Println("== A/A: first measured set")
	a, err := runSet(ctx, seed, secs, false, "")
	if err != nil {
		return err
	}
	fmt.Println("== A/A: second measured set")
	b, err := runSet(ctx, seed, secs, false, "")
	if err != nil {
		return err
	}
	fmt.Printf("\n%-16s %-22s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "gap", "bound")
	failed := 0
	for _, w := range bench.Workloads {
		for _, info := range bench.EndToEnd {
			x, y := a[w.Name].Metrics[info.Name].Value, b[w.Name].Metrics[info.Name].Value
			gap := math.Abs(y-x) / math.Abs(x)
			verdict := "PASS"
			if !(gap <= info.Bound || (info.Name == "setup_s" && math.Abs(y-x) <= setupFloorS)) {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-16s %-22s %14.6g %14.6g %7.2f%% %6.1f%% %s\n", w.Name, info.Name, x, y, 100*gap, 100*info.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("A/A: %d workload-metric pairs differ by more than their bound", failed)
	}
	return nil
}
