package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/models"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON: the committed BENCHMARK.json is exactly what the
// program describes itself as, and every name fits the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeDescription(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, buf.Bytes()) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -describe`; regenerate it")
	}
	b := describe()
	if len(b.Workloads) != 6 {
		t.Errorf("%d workloads, want 6", len(b.Workloads))
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range b.Workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var setup bool
	for _, m := range b.EndToEnd {
		check("end-to-end metric", m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v: bad unit or bound", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, m := range b.PerLayer {
		check("per-layer metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v: bad unit or direction", m)
		}
	}
	if len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(b.PerLayer))
	}
}

// contractLine parses the last line of a single-workload run.
func contractLine(t *testing.T, out string) (correct bool, attempted, failed int, names map[string]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	names = map[string]string{}
	for k, v := range res.Metrics {
		if v.Value == nil || math.IsNaN(*v.Value) || math.IsInf(*v.Value, 0) {
			t.Errorf("metric %s has no finite value", k)
		}
		names[k] = v.Unit
	}
	return res.Correct, res.Attempted, res.Failed, names
}

func wantNames(t *testing.T, what string, defs []metricDef, got map[string]string) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, want %d", what, len(got), len(defs))
	}
	for _, d := range defs {
		if unit, ok := got[d.Name]; !ok {
			t.Errorf("%s: metric %s missing", what, d.Name)
		} else if unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", what, d.Name, unit, d.Unit)
		}
	}
}

// TestQuickEveryWorkload runs every workload at the quick scale both
// ways — untraced through the driver's one-workload form, traced with
// every layer driver and a span file — and checks that exactly the
// metrics BENCHMARK.json lists come out.
func TestQuickEveryWorkload(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // nothing here asserts a time
			scratch := t.TempDir()
			var out bytes.Buffer
			o := options{workload: w.name, seed: 7, trace: "0", quick: true, scratch: scratch}
			if err := run(o, &out); err != nil {
				t.Fatal(err)
			}
			correct, attempted, failed, names := contractLine(t, out.String())
			if !correct || attempted < 1 || failed != 0 {
				t.Errorf("correct=%t attempted=%d failed=%d", correct, attempted, failed)
			}
			wantNames(t, "untraced", endToEnd, names)

			out.Reset()
			spanFile := filepath.Join(scratch, "spans.json")
			o.trace = spanFile
			if err := run(o, &out); err != nil {
				t.Fatalf("traced: %v", err)
			}
			correct, _, failed, names = contractLine(t, out.String())
			if !correct || failed != 0 {
				t.Errorf("traced: correct=%t failed=%d", correct, failed)
			}
			wantNames(t, "traced", perLayer, names)
			checkSpanFile(t, w.name, spanFile)
			if left, _ := os.ReadDir(scratch); len(left) != 1 {
				t.Errorf("scratch holds %d entries after the runs, want only the span file", len(left))
			}
		})
	}
}

func checkSpanFile(t *testing.T, workload, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Env   envStamp `json:"env"`
		Spans []span   `json:"spans"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s: span file: %v", workload, err)
	}
	if f.Env.GoVersion == "" || f.Env.NProc < 1 || f.Env.Seed != 7 {
		t.Errorf("%s: span file lacks its environment stamp: %+v", workload, f.Env)
	}
	sp := &spans{list: f.Spans}
	roots := 0
	for _, s := range f.Spans {
		if s.Workload != workload {
			t.Fatalf("span %d belongs to %q, want %q", s.ID, s.Workload, workload)
		}
		if s.EndNS < s.StartNS || (s.Parent >= s.ID) {
			t.Fatalf("%s: malformed span %+v", workload, s)
		}
		if s.Name == "bench.workload" {
			roots++
			// A body of a few milliseconds is mostly scheduling gaps when
			// the subtests share two CPUs; the full scale reports the
			// same number as bench.span_coverage.
			if cov := sp.coverage(s.ID); cov < 0.9 && s.EndNS-s.StartNS > 50e6 {
				t.Errorf("%s: child spans cover %.0f%% of the composed run, want >= 90%%", workload, 100*cov)
			}
		}
	}
	if roots != 1 {
		t.Errorf("%s: %d composed-run roots, want 1", workload, roots)
	}
}

// TestSelfCheckAndGoldenGuards covers the two maintenance modes on the
// cheapest workload.
func TestSelfCheckAndGoldenGuards(t *testing.T) {
	var out bytes.Buffer
	o := options{workload: "cluster_fleet", seed: defaultSeed, trace: "0", quick: true, self: true, scratch: t.TempDir()}
	// Millisecond bodies are all noise; only the exact half of the check
	// is asserted here.
	err := run(o, &out)
	if !strings.Contains(out.String(), "equal=true") {
		t.Errorf("selfcheck did not find the exact figures equal (err=%v):\n%s", err, out.String())
	}
	o.self, o.update = false, true
	if err := run(o, &out); err == nil {
		t.Error("-update-golden accepted the quick scale")
	}
	if err := run(options{workload: "nope", trace: "0", scratch: t.TempDir()}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each v.
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 1, 7, 3, 8, 2, 9, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{5}, 5, 5, 5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	sp := &spans{list: []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 50},
		{ID: 2, Parent: 0, StartNS: 40, EndNS: 70}, // overlaps 1: counted once
		{ID: 3, Parent: 1, StartNS: 10, EndNS: 20},
		{ID: 4, Parent: 0, StartNS: 90, EndNS: 120}, // clipped to the parent
	}}
	if got := sp.selfNS(0); got != 30 {
		t.Errorf("self time of root = %d, want 30", got)
	}
	if got := sp.coverage(0); got != 0.7 {
		t.Errorf("coverage of root = %v, want 0.7", got)
	}
	if got := sp.selfNS(1); got != 30 {
		t.Errorf("self time of span 1 = %d, want 30", got)
	}
	var nilSpans *spans
	nilSpans.end(nilSpans.begin("x", -1), 1) // a nil recorder records nothing
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 0; i < 990; i++ {
		h.add(1000 * time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.add(100 * time.Microsecond)
	}
	if p50 := h.quantile(0.5); p50 < 1000 || p50 > 1200 {
		t.Errorf("p50 = %v, want within a bucket of 1000", p50)
	}
	if p999 := h.quantile(0.999); p999 < 1e5 || p999 > 1.2e5 {
		t.Errorf("p99.9 = %v, want within a bucket of 1e5", p999)
	}
}

// TestDigestIgnoresObservers: an observed run digests like its bare twin,
// and a different result does not.
func TestDigestIgnoresObservers(t *testing.T) {
	m := models.MLP(64, []int{128}, 10, 8)
	runWith := func(cfg engine.Config) *engine.Result {
		st, err := engine.NewStepper(m, "CA:LMP", cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := engine.Drive(st)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	bare := runWith(engine.Config{Iterations: 2})
	traced := runWith(engine.Config{Iterations: 2, Trace: true, CheckEveryAdvance: true})
	if len(traced.Trace) == 0 {
		t.Fatal("traced run recorded nothing")
	}
	if digestEngine(bare) != digestEngine(traced) {
		t.Error("observed run digests differently from the bare run")
	}
	if digestEngine(bare) == digestEngine(runWith(engine.Config{Iterations: 3})) {
		t.Error("different results share a digest")
	}
	if reflect.DeepEqual(bareResult(traced), *traced) {
		t.Error("bareResult cleared nothing")
	}
}

func TestGoldenMismatches(t *testing.T) {
	g := golden{"w": {"a": "1", "cluster-n8": "2"}}
	if n, _ := g.mismatches("w", defaultSeed, map[string]string{"a": "1", "cluster-n8": "2"}); n != 0 {
		t.Errorf("identical outputs: %d mismatches", n)
	}
	if n, names := g.mismatches("w", defaultSeed, map[string]string{"a": "x", "new": "3"}); n != 2 {
		t.Errorf("changed + unknown output: %d mismatches %v, want 2", n, names)
	}
	// Off the default seed the seeded job mixes are not comparable.
	if n, _ := g.mismatches("w", 7, map[string]string{"a": "1", "cluster-n8": "other"}); n != 0 {
		t.Errorf("seed-bound output compared off the default seed: %d mismatches", n)
	}
	if _, err := loadGolden(); err != nil {
		t.Errorf("committed golden.json: %v", err)
	}
}
