// Command bench is the repository's benchmark: six named workloads sized
// in seconds, host-time end-to-end metrics with a regression bound each,
// exact correctness checks beside every speed, and a separate traced run
// that attributes host time to each layer by timing calls into the
// layers' public functions from this directory's own files.
//
//	go run ./bench                      # every workload, end-to-end metrics
//	go run ./bench -trace spans.json    # the traced run: per-layer metrics
//	go run ./bench -selfcheck           # two sets of runs must agree
//	go run ./bench -update-golden       # rewrite bench/golden.json
//	go run ./bench -describe            # print BENCHMARK.json
//
// The driver's form runs one workload and ends with one JSON line:
//
//	go run ./bench --workload solo_ca --seed 7 --seconds 10 --trace 0
//
// See README.md in this directory for the metrics and how to cite them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// scratchRoot is where cache directories go: inside the checkout (the
// benchmark writes nowhere else), under a name .gitignore lists.
const scratchRoot = ".bench_build"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string // "0", "1" or a span-file path
	quick    bool
	out      string
	scratch  string // where cache directories go; tests point it elsewhere
	self     bool
	update   bool
	describe bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and end with the one-line JSON result")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed for the generated inputs (job mixes, cell and driver order)")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long each workload's timed repetitions should take together (never fewer than 3 repetitions)")
	flag.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics; 1: the traced run, per-layer metrics; FILE: traced run, spans written to FILE")
	flag.BoolVar(&o.quick, "quick", false, "tiny scale (batch/64, 2 iterations, 8 tenants): a smoke run, not a measurement")
	flag.StringVar(&o.out, "out", "", "also write the report as JSON to this file")
	flag.BoolVar(&o.self, "selfcheck", false, "run the untraced set twice and fail if any metric's two medians differ by more than its bound")
	flag.BoolVar(&o.update, "update-golden", false, "rewrite bench/golden.json from this run's outputs (default seed, full scale)")
	flag.BoolVar(&o.describe, "describe", false, "print BENCHMARK.json (workloads, metrics, units, directions, bounds) and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	// The suites read results/*.csv and -update-golden writes
	// bench/golden.json, both relative to the repository root.
	if _, err := os.Stat("go.mod"); err != nil && !o.describe {
		fmt.Fprintln(os.Stderr, "bench: run from the repository root (no go.mod here)")
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// report is the whole output of one invocation.
type report struct {
	// Claim is what the change under test says it improves. The
	// benchmark itself claims nothing.
	Claim     *string    `json:"claim"`
	Env       envStamp   `json:"env"`
	Workloads []wlReport `json:"workloads"`
}

func run(o options, stdout io.Writer) error {
	if o.describe {
		return writeDescription(stdout)
	}
	sc := fullScale()
	if o.quick {
		sc = quickScale()
	}
	all := workloads()
	selected := all
	if o.workload != "" {
		selected = nil
		for _, w := range all {
			if w.name == o.workload {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	if o.scratch == "" {
		o.scratch = scratchRoot
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	c := &runCtx{seed: o.seed, sc: sc, tmp: tmp, procs: runtime.GOMAXPROCS(0)}
	rpt := &report{Env: stampEnv(o.seed, minReps, sc)}

	switch {
	case o.update:
		return updateGolden(selected, c, g, stdout)
	case o.self:
		return selfCheck(selected, c, g, o.seconds, rpt, stdout)
	}

	traced := o.trace != "0"
	var sp *spans
	if traced {
		sp = newSpans()
	}
	for i := range selected {
		w := &selected[i]
		var wr *wlReport
		if traced {
			wr, err = runTraced(w, c, g, sp)
		} else {
			wr, _, err = runUntraced(w, c, g, o.seconds)
		}
		if err != nil {
			return err
		}
		rpt.Workloads = append(rpt.Workloads, *wr)
		printWorkload(stdout, wr)
	}
	if traced && o.trace != "1" {
		if err := writeSpans(o.trace, sp, rpt.Env); err != nil {
			return err
		}
	}
	if o.out != "" {
		if err := writeReport(o.out, rpt); err != nil {
			return err
		}
	}
	printEnv(stdout, rpt.Env)
	if o.workload != "" {
		return printContractLine(stdout, &rpt.Workloads[0], traced)
	}
	for i := range rpt.Workloads {
		if !rpt.Workloads[i].correct() {
			return fmt.Errorf("%s: outputs are not correct (failed_ops=%d golden_mismatch=%d claims_failed=%d)",
				rpt.Workloads[i].Workload, rpt.Workloads[i].FailedOps,
				rpt.Workloads[i].GoldenMismatch, rpt.Workloads[i].ClaimsFailed)
		}
	}
	return nil
}

func writeSpans(path string, sp *spans, env envStamp) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sp.write(f, env); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeReport(path string, rpt *report) error {
	data, err := json.MarshalIndent(rpt, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printContractLine ends a single-workload run with the one JSON object
// the driver reads: correct, attempted, failed and the metrics of the
// run's kind.
func printContractLine(w io.Writer, r *wlReport, traced bool) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := r.EndToEnd
	if traced {
		vals = r.PerLayer
	}
	m := make(map[string]mv, len(vals))
	for _, v := range vals {
		m[v.Name] = mv{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), r.Ops, r.FailedOps, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printEnv(w io.Writer, e envStamp) {
	fmt.Fprintf(w, "env: commit=%s %s cpu=%q nproc=%d GOMAXPROCS=%d seed=%d repetitions>=%d scale=%s claim=null\n",
		e.Commit, e.GoVersion, e.CPU, e.NProc, e.GOMAXPROCS, e.Seed, e.Repetitions, e.Scale)
}

func printWorkload(w io.Writer, r *wlReport) {
	fmt.Fprintf(w, "== %s: ops=%d failed_ops=%d golden_mismatch=%d claims_failed=%d\n",
		r.Workload, r.Ops, r.FailedOps, r.GoldenMismatch, r.ClaimsFailed)
	for _, v := range r.EndToEnd {
		val := fmt.Sprintf("%.6g", v.Value)
		if r.Unresolved && v.Name != "alloc_mb" {
			val = "unresolved"
		}
		fmt.Fprintf(w, "  %-18s %12s %-5s [q1 %.6g, q3 %.6g, n=%d] better=%s bound=%.0f%%\n",
			v.Name, val, v.Unit, v.Q1, v.Q3, v.N, v.Better, 100*v.Bound)
	}
	for _, v := range r.PerLayer {
		val := fmt.Sprintf("%.6g", v.Value)
		if v.Name == "sched.worker_speedup_x" && runtime.GOMAXPROCS(0) < 2 {
			val = "unresolved" // one CPU cannot show a speed-up
		}
		fmt.Fprintf(w, "  %-30s %14s %-6s better=%s\n", v.Name, val, v.Unit, v.Better)
	}
	names := make([]string, 0, len(r.SelfMS))
	for name := range r.SelfMS {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return r.SelfMS[names[i]] > r.SelfMS[names[j]] })
	for _, name := range names {
		fmt.Fprintf(w, "  self %-25s %14.3f ms\n", name, r.SelfMS[name])
	}
}
