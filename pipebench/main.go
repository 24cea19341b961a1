// Command pipebench is the repository's pipeline benchmark. It runs one
// named workload against the library for a fixed time, checks every
// operation's output, and prints its metrics as one JSON line:
//
//	bash pipebench/run.sh --workload churn-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around every layer call and reports the per-layer metrics.
// `pipebench compare BASE HEAD` compares two directories of saved
// outputs. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "pipebench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := runMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	workDir  string
}

// setups is the number of set-ups per run; setup_s is their median.
const setups = 5

func runMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: solve-twitter, churn-steady or diurnal-replay")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.Float64Var(&o.scale, "scale", 1, "multiplier on the workload sizes (the smoke tests use a tiny one)")
	fs.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "pipebench"), "directory for journals and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 || o.scale <= 0 {
		return errors.New("-seconds and -scale must be positive")
	}
	i := slices.IndexFunc(workloads, func(s workloadSpec) bool { return s.name == o.workload })
	if i < 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	dir := filepath.Join(o.workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rec, err := run(context.Background(), workloads[i], o, dir)
	if err != nil {
		return err
	}
	printSummary(stderr, rec)
	line, err := json.Marshal(map[string]*record{"pipebench_record": rec})
	if err != nil {
		return err
	}
	res, err := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Ops, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", line, res)
	return err
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything a run measured, printed on the line before the
// result; the compare mode reads it.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Scale     float64           `json:"scale"`
	Env       envInfo           `json:"env"`
	Sizes     map[string]int64  `json:"sizes"`
	Setups    int               `json:"setups"`
	Passes    int               `json:"passes"`
	Ops       int               `json:"ops"`
	Failed    int               `json:"failed"`
	FailFrac  float64           `json:"fail_frac"`
	Errors    []string          `json:"errors,omitempty"`
	Correct   bool              `json:"correct"`
	Output    identity          `json:"output"`
	WallOpMS  wallTimes         `json:"wall_op_ms"`
	Metrics   map[string]metric `json:"metrics"`
	SpansFile string            `json:"spans_file,omitempty"`
	Spans     int               `json:"spans,omitempty"`
}

// identity is the answer at the end of the first pass, which every run
// completes: a function of the seed alone.
type identity struct {
	Fingerprint string  `json:"fingerprint"`
	CostUSD     float64 `json:"cost_usd"`
	BillUSD     float64 `json:"bill_usd"`
}

// wallTimes are the wall-clock op times, for reference.
type wallTimes struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
}

// sample is one op's measurements. The op's time is the CPU time the
// process spent on it (user and system, all threads): on a shared host the
// wall time also carries CPU the hypervisor steals, which spread op_ms.p90
// by up to 28% between identical runs. Wall time is kept in the record.
type sample struct {
	ms        float64
	wallMS    float64
	alloc     uint64
	gcCycles  uint32
	gcPauseNs uint64
	moved     int64
	traced    bool
}

// maxErrors bounds the error messages a record keeps.
const maxErrors = 5

// minOps is the fewest ops a run measures: ten of them lie beyond p90.
const minOps = 100

func run(ctx context.Context, spec workloadSpec, o options, dir string) (*record, error) {
	tr := newTracer()
	env := &setupEnv{seed: o.seed, scale: o.scale, dir: dir, tr: tr, c: &counters{}, trace: o.trace}
	rec := &record{
		Workload: spec.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Scale: o.scale,
		Env: environment(dir), Setups: setups,
	}
	fail := func(err error) {
		rec.Failed++
		if len(rec.Errors) < maxErrors {
			rec.Errors = append(rec.Errors, err.Error())
		}
	}

	// Set-up, several times: setup_s is the median.
	var setupSec []float64
	var b bench
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
			b = nil
			runtime.GC()
		}
		tr.enabled = o.trace
		root := tr.root(spanSetup, -1)
		start := time.Now()
		nb, err := spec.setup(ctx, env)
		setupSec = append(setupSec, time.Since(start).Seconds())
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		b = nb
	}
	defer b.close()

	// The measured loop: whole passes, while the next one is expected to
	// end within the measuring time, and until at least minOps ops ran so
	// that ten lie beyond p90. A traced run traces every other pass and
	// runs each pass's input twice, traced then untraced, so the untraced
	// passes give the tracing overhead on the same inputs. It runs at least
	// two passes.
	var samples []sample
	var passes []outcome
	var ms runtime.MemStats
	// The peak resident set is sampled after every op, once set-up's
	// freed memory is back with the OS: it is the serving loop's peak.
	var rssMB float64
	debug.FreeOSMemory()
	minPasses := 1
	if o.trace {
		minPasses = 2
	}
	start := time.Now()
	for pass := 0; ; pass++ {
		elapsed := time.Since(start).Seconds()
		if pass >= minPasses && len(samples) >= minOps && elapsed+elapsed/float64(pass) > o.seconds {
			break
		}
		traced, input := o.trace && pass%2 == 0, pass
		if o.trace {
			input = pass / 2
		}
		tr.enabled = false
		if err := b.startPass(ctx, input); err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", spec.name, pass, err)
		}
		rec.Passes++
		for k := 0; k < b.passLen(); k++ {
			if err := b.prepare(ctx); err != nil {
				return nil, fmt.Errorf("%s op %d: %w", spec.name, len(samples), err)
			}
			tr.enabled = traced
			runtime.ReadMemStats(&ms)
			before := ms
			env.c.inOp = true
			root := tr.root(spanOp, -1)
			c0, t0 := cpuTime(), time.Now()
			err := b.op(ctx)
			d, cpu := time.Since(t0), cpuTime()-c0
			tr.end(root)
			env.c.inOp = false
			runtime.ReadMemStats(&ms)
			rssMB = max(rssMB, residentMB())
			s := sample{
				ms:        float64(cpu.Nanoseconds()) / 1e6,
				wallMS:    float64(d.Nanoseconds()) / 1e6,
				alloc:     ms.TotalAlloc - before.TotalAlloc,
				gcCycles:  ms.NumGC - before.NumGC,
				gcPauseNs: ms.PauseTotalNs - before.PauseTotalNs,
				traced:    traced,
			}
			if err != nil {
				// The op's state is unknown: count it and stop the run.
				fail(fmt.Errorf("op %d: %w", len(samples), err))
				samples = append(samples, s)
				break
			}
			croot := tr.root(spanCheck, tr.trace)
			retries := env.c.retries
			s.moved, err = b.check(ctx)
			tr.end(croot)
			if err == nil && retries != 0 {
				err = fmt.Errorf("the no-op executor logged %d retries", retries)
			}
			if err != nil {
				fail(fmt.Errorf("op %d: %w", len(samples), err))
			}
			samples = append(samples, s)
		}
		if rec.Failed > 0 {
			break
		}
		out, err := b.passDone(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", spec.name, pass, err)
		}
		passes = append(passes, out)
	}
	tr.enabled = false
	rec.Ops = len(samples)
	wall := make([]float64, len(samples))
	for i, s := range samples {
		wall[i] = s.wallMS
	}
	rec.WallOpMS = wallTimes{P50: median(wall), P90: quantile(wall, 0.9)}

	if err := b.finish(ctx); err != nil {
		fail(fmt.Errorf("end of run: %w", err))
	}
	rec.Correct = rec.Failed == 0
	rec.FailFrac = float64(rec.Failed) / float64(rec.Ops)
	rec.Sizes = b.sizes()
	if len(passes) == 0 {
		return rec, nil
	}
	first, last := passes[0], passes[len(passes)-1]
	rec.Output = identity{Fingerprint: first.fingerprint, CostUSD: first.cost.USD(), BillUSD: first.billUSD}
	rec.Sizes["selected_pairs"] = last.selected
	rec.Sizes["vms"] = int64(last.vms)

	if o.trace {
		rec.Metrics = layerMetrics(samples, tr.spans, env.c, last)
		rec.SpansFile = filepath.Join(o.workDir, "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		rec.Spans = len(tr.spans)
		if err := writeSpans(rec.SpansFile, tr.spans); err != nil {
			return nil, err
		}
	} else {
		rec.Metrics = endToEndMetrics(samples, setupSec, passes, rssMB)
	}
	return rec, nil
}

func printSummary(w io.Writer, rec *record) {
	fmt.Fprintf(w, "pipebench %s seed=%d trace=%v: %d ops in %d passes, %d failed; %s %s/%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s journal_fs=%s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Ops, rec.Passes, rec.Failed,
		rec.Env.GoVersion, rec.Env.GOOS, rec.Env.GOARCH, rec.Env.GOMAXPROCS, rec.Env.NProc, rec.Env.CPU, rec.Env.Commit, rec.Env.JournalFS)
	fmt.Fprintf(w, "  sizes %v\n  output fingerprint=%s cost_usd=%.6f bill_usd=%.6f\n", rec.Sizes, rec.Output.Fingerprint, rec.Output.CostUSD, rec.Output.BillUSD)
	fmt.Fprintf(w, "  wall-clock op time p50 %.6g ms, p90 %.6g ms\n", rec.WallOpMS.P50, rec.WallOpMS.P90)
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
}
