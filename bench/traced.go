package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
)

// rtSnapshot is the Go runtime's own accounting at one instant.
type rtSnapshot struct {
	gcCPU, totalCPU, mutexWait float64
	mallocs                    uint64
	heapSys                    uint64
}

func readRuntime() rtSnapshot {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sync/mutex/wait/total:seconds"},
	}
	metrics.Read(samples)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s := rtSnapshot{mallocs: mem.Mallocs, heapSys: mem.HeapSys}
	for i, dst := range []*float64{&s.gcCPU, &s.totalCPU, &s.mutexWait} {
		if samples[i].Value.Kind() == metrics.KindFloat64 {
			*dst = samples[i].Value.Float64()
		}
	}
	return s
}

// runTraced is the separate traced run of one workload: one untraced
// repetition for reference, one repetition in composed form with spans
// on, then the workload's layer drivers. It yields the per-layer
// metrics; end-to-end metrics always come from runUntraced.
func runTraced(w *workload, c *runCtx, g golden, sp *spans) (*wlReport, error) {
	r := &wlReport{Workload: w.name, Why: w.why, Unresolved: w.parallel && c.procs < 2}
	sp.workload = w.name
	state, err := w.setup(c)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	if w.teardown != nil {
		defer w.teardown(state)
	}
	base, baseWall, _, _, err := timedRep(w, c, state, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.account(w, c, g, base, base)

	runtime.GC() // the runtime's CPU classes refresh at the end of a cycle
	rt0 := readRuntime()
	cur, tracedWall, _, root, err := timedRep(w, c, state, sp)
	runtime.GC()
	rt1 := readRuntime()
	if err != nil {
		return nil, fmt.Errorf("%s: traced: %w", w.name, err)
	}
	// The composed form must deliver what the plain one does.
	r.account(w, c, g, base, cur)

	layer := cur.layer
	layer["bench.trace_overhead_frac"] = (tracedWall - baseWall) / baseWall
	layer["bench.span_coverage"] = sp.coverage(root)
	r.SelfMS = map[string]float64{}
	for name, ns := range sp.selfByName(root) {
		r.SelfMS[name] = float64(ns) / 1e6
	}
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		layer["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	layer["runtime.mutex_wait_s"] = rt1.mutexWait - rt0.mutexWait
	layer["runtime.peak_heap_mb"] = float64(rt1.heapSys) / 1e6
	if cur.steps > 0 {
		layer["runtime.mallocs_per_step"] = float64(rt1.mallocs-rt0.mallocs) / float64(cur.steps)
	}

	proot := sp.begin("bench.layer_drivers", -1)
	p := newProbe(w, c, sp, proot, layer)
	for _, drive := range probeSets[w.name] {
		if err := drive(p); err != nil {
			return nil, fmt.Errorf("%s: layer driver: %w", w.name, err)
		}
	}
	sp.end(proot, 1)

	if h, m := layer["sched.hits"], layer["sched.misses"]; h+m > 0 {
		layer["sched.hit_ratio"] = h / (h + m)
		layer["sched.dedup_ratio"] = layer["sched.dedups"] / float64(cur.cells)
	}
	if a, b := layer["cluster.step_ns.n128"], layer["cluster.step_ns.n512"]; a > 0 && b > 0 {
		layer["cluster.flatness_x"] = b / a // = n128 rate / n512 rate; 1 is flat
	}
	sim := cur.sim
	layer["sim.iter_s"] = sim.IterS
	layer["sim.slow_write_gb"] = float64(sim.SlowWriteB) / 1e9
	layer["sim.policy_evictions"] = float64(sim.Evictions)
	if sim.TwoLMAccesses > 0 {
		layer["sim.twolm_hit_ratio"] = float64(sim.TwoLMHits) / float64(sim.TwoLMAccesses)
	}
	layer["sim.makespan_s"] = sim.MakespanS
	layer["check.golden_mismatch"] = float64(r.GoldenMismatch)
	layer["check.claims_failed"] = float64(r.ClaimsFailed)

	for _, def := range perLayer {
		r.PerLayer = append(r.PerLayer, summarize(def, []float64{layer[def.Name]}))
	}
	return r, nil
}

// updateGolden rewrites bench/golden.json from one repetition of every
// non-suite workload. The suites need no digests: they are compared with
// results/*.csv and the 25 claims directly.
func updateGolden(ws []workload, c *runCtx, g golden, out io.Writer) error {
	if c.sc.quick || c.seed != defaultSeed {
		return fmt.Errorf("-update-golden needs the full scale and the default seed")
	}
	for i := range ws {
		w := &ws[i]
		if w.parallel {
			continue
		}
		state, err := w.setup(c)
		if err != nil {
			return fmt.Errorf("%s: setup: %w", w.name, err)
		}
		cur, err := w.body(c, state, nil, -1)
		if w.teardown != nil {
			w.teardown(state)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		cur.digestAll()
		if cur.failed > 0 {
			return fmt.Errorf("%s: %d failed operations; goldens not updated", w.name, cur.failed)
		}
		g[w.name] = cur.digests
		fmt.Fprintf(out, "%s: %d digests\n", w.name, len(cur.digests))
	}
	return writeGolden(g)
}

// selfCheck runs the untraced set twice in one invocation. Two sets of
// runs of the same code must agree: every end-to-end metric's two medians
// within its own bound, the exact figures equal. The spreads it prints
// are what the bounds in BENCHMARK.json were chosen from.
func selfCheck(ws []workload, c *runCtx, g golden, seconds float64, rpt *report, out io.Writer) error {
	var bad int
	for i := range ws {
		w := &ws[i]
		var runs [2]*wlReport
		var digests [2]map[string]string
		for k := range runs {
			var err error
			if runs[k], digests[k], err = runUntraced(w, c, g, seconds); err != nil {
				return err
			}
			rpt.Workloads = append(rpt.Workloads, *runs[k])
		}
		a, b := runs[0], runs[1]
		fmt.Fprintf(out, "== %s\n", w.name)
		for j, va := range a.EndToEnd {
			vb := b.EndToEnd[j]
			diff := math.Abs(va.Value-vb.Value) / math.Min(va.Value, vb.Value)
			spread := math.Max((va.Q3-va.Q1)/va.Value, (vb.Q3-vb.Q1)/vb.Value)
			verdict := "ok"
			switch {
			case a.Unresolved && va.Name != "alloc_mb":
				verdict = "unresolved"
			case va.Name == "setup_s" && math.Abs(va.Value-vb.Value) < 0.1:
				// Two setups of a millisecond in one process differ by
				// heap state alone; under 0.1 s apart is agreement.
			case diff > va.Bound:
				verdict = "FAIL"
				bad++
			}
			fmt.Fprintf(out, "  %-18s %12.6g %12.6g %-5s diff %5.2f%% spread %5.2f%% bound %2.0f%% %s\n",
				va.Name, va.Value, vb.Value, va.Unit, 100*diff, 100*spread, 100*va.Bound, verdict)
		}
		exact := a.sim == b.sim && sameDigests(digests[0], digests[1]) == 0 &&
			a.GoldenMismatch == b.GoldenMismatch && a.ClaimsFailed == b.ClaimsFailed &&
			a.FailedOps == b.FailedOps
		fmt.Fprintf(out, "  exact figures (sim.*, digests, golden_mismatch, claims_failed, failed_ops): equal=%t\n", exact)
		if !exact || !a.correct() || !b.correct() {
			bad++
			fmt.Fprintf(os.Stderr, "bench: %s: exact figures differ or outputs are wrong\n", w.name)
		}
	}
	printEnv(out, rpt.Env)
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d checks failed", bad)
	}
	return nil
}
