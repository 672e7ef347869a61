package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// minReps is the fewest timed repetitions of a body: a median of fewer
// than three is not a median. The quick scale measures nothing and runs
// the body once (its traced run adds the second repetition that the
// identity check compares).
const minReps = 3

func (c *runCtx) minReps() int {
	if c.sc.quick {
		return 1
	}
	return minReps
}

// wlReport is everything one run of one workload measured.
type wlReport struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	// Unresolved marks rows that need two CPUs on a host with one: their
	// numbers are printed but must not be compared.
	Unresolved bool `json:"unresolved,omitempty"`

	Ops            int `json:"ops"`
	FailedOps      int `json:"failed_ops"`
	GoldenMismatch int `json:"golden_mismatch"`
	ClaimsFailed   int `json:"claims_failed"`

	EndToEnd []metricValue `json:"end_to_end,omitempty"`
	PerLayer []metricValue `json:"per_layer,omitempty"`
	// SelfMS is the composed run's host time by span name, self time
	// only: where the traced repetition's milliseconds went.
	SelfMS map[string]float64 `json:"self_ms,omitempty"`

	sim simStats
}

// metricValue is one metric as measured: the median over n samples with
// its quartiles.
type metricValue struct {
	metricDef
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func (r *wlReport) correct() bool {
	return r.FailedOps == 0 && r.GoldenMismatch == 0 && r.ClaimsFailed == 0
}

func summarize(def metricDef, samples []float64) metricValue {
	q1, med, q3 := quartiles(samples)
	return metricValue{metricDef: def, Value: med, Q1: q1, Q3: q3, N: len(samples)}
}

// timedRep runs one repetition of the body from a collected heap and
// returns its outcome, host seconds and MB allocated. On the traced run
// the repetition is the root span every other span hangs from.
func timedRep(w *workload, c *runCtx, st any, sp *spans) (r *rep, wall, allocMB float64, root int, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root = sp.begin("bench.workload", -1)
	t0 := time.Now()
	r, err = w.body(c, st, sp, root)
	wall = time.Since(t0).Seconds()
	sp.end(root, 1)
	runtime.ReadMemStats(&m1)
	if r != nil {
		r.digestAll()
	}
	return r, wall, float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, root, err
}

// setUp runs the workload's setup, many times while it is short: a
// setup of milliseconds is all noise unless it is repeated. The last
// state is kept.
func setUp(w *workload, c *runCtx) (any, []float64, error) {
	var (
		samples []float64
		state   any
		total   float64
	)
	for len(samples) < 25 && (len(samples) == 0 || total < 0.5) {
		if state != nil && w.teardown != nil {
			w.teardown(state)
		}
		runtime.GC()
		t0 := time.Now()
		st, err := w.setup(c)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		dt := time.Since(t0).Seconds()
		samples = append(samples, dt)
		total += dt
		state = st
	}
	return state, samples, nil
}

// account folds one repetition into the report and checks it against the
// first repetition and the committed goldens.
func (r *wlReport) account(w *workload, c *runCtx, g golden, first, cur *rep) {
	r.Ops += cur.ops
	r.FailedOps += cur.failed
	if cur != first {
		if n := sameDigests(first.digests, cur.digests); n > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: %d outputs differ between repetitions\n", w.name, n)
			r.FailedOps += n
		}
		return
	}
	// Exact figures are taken from the first repetition; the identity
	// check above extends them to the rest.
	r.sim = cur.sim
	if c.sc.quick {
		return // shrunken models reproduce neither the references nor the claims
	}
	r.ClaimsFailed = cur.claimsFailed
	r.GoldenMismatch = cur.csvMismatch
	if !w.parallel {
		n, names := g.mismatches(w.name, c.seed, cur.digests)
		r.GoldenMismatch += n
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "bench: %s: output %q differs from %s\n", w.name, name, goldenPath)
		}
	}
}

// runUntraced measures a workload's end-to-end metrics: setup, then at
// least minReps repetitions of the body, and as many as fit in seconds.
func runUntraced(w *workload, c *runCtx, g golden, seconds float64) (*wlReport, map[string]string, error) {
	r := &wlReport{Workload: w.name, Why: w.why, Unresolved: w.parallel && c.procs < 2}
	state, setupS, err := setUp(w, c)
	if err != nil {
		return nil, nil, err
	}
	if w.teardown != nil {
		defer w.teardown(state)
	}
	var (
		first                             *rep
		wall, stepsPS, simPS, cellsPS, mb []float64
	)
	reps := c.minReps()
	for i := 0; i < reps; i++ {
		cur, dt, alloc, _, err := timedRep(w, c, state, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if first == nil {
			first = cur
			// The body is fixed work; seconds chooses how many times it
			// runs, never how much it does.
			if n := int(math.Round(seconds / dt)); n > reps {
				reps = n
			}
		}
		r.account(w, c, g, first, cur)
		wall = append(wall, dt)
		stepsPS = append(stepsPS, float64(cur.steps)/dt)
		simPS = append(simPS, cur.simS/dt)
		cellsPS = append(cellsPS, float64(cur.cells)/dt)
		mb = append(mb, alloc)
	}
	for i, samples := range [][]float64{setupS, wall, stepsPS, simPS, cellsPS, mb} {
		r.EndToEnd = append(r.EndToEnd, summarize(endToEnd[i], samples))
	}
	return r, first.digests, nil
}
