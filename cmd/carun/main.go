// Command carun executes one training experiment — a paper model under a
// CachedArrays operating mode or a 2LM baseline — and prints the paper's
// measurement set: iteration time, movement stalls, per-device traffic,
// cache statistics and policy counters.
//
// Examples:
//
//	carun -model resnet200 -batch 2048 -mode CA:LM
//	carun -model densenet264 -batch 1536 -mode 2LM:0 -iters 4
//	carun -model vgg116 -batch 320 -mode CA:LM -dram 30GB
//	carun -model resnet50 -batch 256 -mode CA:LMP -metrics run.csv -metrics-summary run.json
//	carun -model resnet200 -mode CA:LM -listen :8080   # live /metrics while it runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/profiling"
	"cachedarrays/internal/runcfg"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/units"
)

func buildModel(name string, batch int) (*models.Model, error) {
	if batch < 1 {
		return nil, fmt.Errorf("-batch must be at least 1 (got %d)", batch)
	}
	switch strings.ToLower(name) {
	case "densenet264":
		return models.DenseNet(264, batch), nil
	case "densenet121":
		return models.DenseNet(121, batch), nil
	case "resnet200":
		return models.ResNet(200, batch), nil
	case "resnet50":
		return models.ResNet(50, batch), nil
	case "vgg416":
		return models.VGG(416, batch), nil
	case "vgg116":
		return models.VGG(116, batch), nil
	case "vgg16":
		return models.VGG(16, batch), nil
	case "mlp":
		return models.MLP(4096, []int{4096, 4096}, 1000, batch), nil
	default:
		return nil, fmt.Errorf("unknown model %q (densenet264, densenet121, resnet200, resnet50, vgg416, vgg116, vgg16, mlp)", name)
	}
}

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// cliMain is the testable entry point: it parses args, runs the
// experiment, and returns the process exit code (0 ok, 1 run error,
// 2 usage error).
func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("carun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modelName = fs.String("model", "resnet200", "workload: densenet264, resnet200, vgg416, vgg116, ...")
		batch     = fs.Int("batch", 2048, "training batch size")
		mode      = fs.String("mode", "CA:LM", "operating mode: "+strings.Join(engine.Modes, ", "))
		iters     = fs.Int("iters", 4, "training iterations (first is warm-up)")
		dram      = fs.String("dram", "", "DRAM budget, e.g. 180GB; \"0\" for NVRAM-only (default: paper 180 GB)")
		nvram     = fs.String("nvram", "", "NVRAM budget (default: paper 1300 GB)")
		verbose   = fs.Bool("v", false, "print per-iteration metrics")
		async     = fs.Bool("async", false, "use the asynchronous data mover (CA modes; §V-c future work, implemented)")
		lookahead = fs.Int("lookahead", 0, "emit will_read hints this many kernels ahead")
		allocator = fs.String("alloc", "", "heap allocator: firstfit (default), bestfit, buddy")
		workload  = fs.String("workload", "", "load the workload from a JSON trace file instead of -model")
		dump      = fs.String("dumpworkload", "", "write the built workload as JSON to this file and exit")
		events    = fs.Int("events", 0, "print the last N data-manager events (CA modes)")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	shared := runcfg.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2 // flag package already printed the error + usage
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "carun:", err)
		return 1
	}

	canon, err := sched.Normalize(*mode)
	if err != nil {
		return fail(err)
	}
	// Only the CA engines carry fault and audit hooks; a baseline run would
	// exit 0 having injected and audited nothing.
	isCA := strings.HasPrefix(canon, "CA:")
	if !isCA && shared.Faults != "" {
		return fail(fmt.Errorf("-faults: mode %s injects no faults (fault injection covers the CA engines)", canon))
	}
	if !isCA && shared.Check {
		return fail(fmt.Errorf("-check: mode %s audits nothing (the invariant checker covers the CA engines)", canon))
	}

	stopProf, err := profiling.Start(*cpuprof, *memprof)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "carun:", err)
		}
	}()

	var model *models.Model
	if *workload != "" {
		f, err := os.Open(*workload)
		if err != nil {
			return fail(err)
		}
		model, err = models.LoadJSON(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
	} else {
		model, err = buildModel(*modelName, *batch)
		if err != nil {
			return fail(err)
		}
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			return fail(err)
		}
		err = model.SaveJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d tensors, %d kernels)\n", *dump, len(model.Tensors), len(model.Kernels))
		return 0
	}
	cfg := engine.Config{
		Iterations:    *iters,
		AsyncMovement: *async,
		HintLookahead: *lookahead,
		Allocator:     *allocator,
		TraceEvents:   *events,
	}
	if *dram != "" {
		n, err := units.ParseBytes(*dram)
		if err != nil {
			return fail(err)
		}
		if n == 0 {
			n = engine.NVRAMOnly
		}
		cfg.FastCapacity = n
	}
	if *nvram != "" {
		n, err := units.ParseBytes(*nvram)
		if err != nil {
			return fail(err)
		}
		cfg.SlowCapacity = n
	}

	sess, err := shared.Start(false, stdout)
	if err != nil {
		return fail(err)
	}
	defer sess.Close()
	name := metrics.SafeName(model.Name, *mode)
	done := sess.Apply(name, &cfg)

	fmt.Fprintf(stdout, "model       : %s (batch %d)\n", model.Name, model.BatchSize)
	fmt.Fprintf(stdout, "footprint   : %s peak live (weights %s)\n",
		units.Bytes(model.PeakFootprint()), units.Bytes(model.WeightBytes()))
	fmt.Fprintf(stdout, "kernels     : %d (%d tensors), %.1f TFLOP/iteration\n",
		len(model.Kernels), len(model.Tensors), model.TotalFLOPs()/1e12)

	// A single cell still goes through the scheduler so that -cache can
	// serve it from a previous process's results (instrumented runs
	// bypass the cache and always simulate).
	results, err := sess.Scheduler(nil).Run([]sched.Cell{{
		Name: name, Model: model, Mode: *mode, Cfg: cfg, Done: done,
	}})
	if err != nil {
		return fail(err)
	}
	r := results[0]
	if st := sess.CacheStats(); st.Hits > 0 {
		fmt.Fprintf(stdout, "cache       : result served from the -cache directory (no simulation)\n")
	}

	fmt.Fprintf(stdout, "mode        : %s\n", r.Mode)
	fmt.Fprintf(stdout, "iteration   : %s (compute+kernels %s, movement stalls %s, gc %s)\n",
		units.Seconds(r.IterTime), units.Seconds(r.ComputeTime),
		units.Seconds(r.MoveTime), units.Seconds(r.GCTime))
	fmt.Fprintf(stdout, "async proj. : %s (paper Fig. 7 red line)\n", units.Seconds(r.ProjectedAsyncTime))
	fmt.Fprintf(stdout, "DRAM        : read %s, write %s, utilization %.1f%%\n",
		units.Bytes(r.Fast.ReadBytes), units.Bytes(r.Fast.WriteBytes), 100*r.FastBusUtil)
	fmt.Fprintf(stdout, "NVRAM       : read %s, write %s, utilization %.1f%%\n",
		units.Bytes(r.Slow.ReadBytes), units.Bytes(r.Slow.WriteBytes), 100*r.SlowBusUtil)
	fmt.Fprintf(stdout, "peak heap   : %s\n", units.Bytes(r.PeakHeap))
	if r.Cache.Accesses() > 0 {
		fmt.Fprintf(stdout, "DRAM cache  : hit %.1f%%, clean miss %.1f%%, dirty miss %.1f%%\n",
			100*r.Cache.HitRate(), 100*r.Cache.CleanMissRate(), 100*r.Cache.DirtyMissRate())
	}
	if isCA {
		p := r.Policy
		fmt.Fprintf(stdout, "policy      : %d prefetches (%s), %d evictions (%s), %d elided writebacks\n",
			p.Prefetches, units.Bytes(p.PrefetchBytes), p.Evictions,
			units.Bytes(p.EvictionBytes), p.ElidedWritebacks)
		fmt.Fprintf(stdout, "retire      : %d eager, %d deferred; gc: %d collections\n",
			p.EagerRetires, p.DeferredRetires, r.GC.Collections)
	}
	if f := r.Faults; f.Total() > 0 {
		fmt.Fprintf(stdout, "faults      : %d alloc failures, %d copy errors, %d copy stalls (%s), %d throttle hits, %d shrink rejects\n",
			f.AllocFailures, f.CopyErrors, f.CopyStalls, units.Seconds(f.StallSeconds),
			f.ThrottleHits, f.ShrinkRejects)
		fmt.Fprintf(stdout, "degradation : %d alloc retries, %d copy retries, %d slow-tier fallbacks, %d fetch failures\n",
			r.DM.AllocRetries, r.DM.CopyRetries, r.Policy.FallbackAllocs, r.Policy.FetchFailures)
	}
	if shared.Check {
		fmt.Fprintf(stdout, "invariants  : %d audits passed\n", r.InvariantChecks)
	}
	if *events > 0 && len(r.Events) > 0 {
		fmt.Fprintf(stdout, "\nlast %d data-manager events:\n", len(r.Events))
		for _, e := range r.Events {
			fmt.Fprintln(stdout, " ", e)
		}
	}
	if *verbose {
		fmt.Fprintln(stdout, "\nper-iteration:")
		for i, it := range r.Iterations {
			fmt.Fprintf(stdout, "  iter %d: %s (move %s, gc %s)  dram %s/%s  nvram %s/%s\n",
				i, units.Seconds(it.Time), units.Seconds(it.MoveTime), units.Seconds(it.GCTime),
				units.Bytes(it.Fast.ReadBytes), units.Bytes(it.Fast.WriteBytes),
				units.Bytes(it.Slow.ReadBytes), units.Bytes(it.Slow.WriteBytes))
		}
	}
	return 0
}
