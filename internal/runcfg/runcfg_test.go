package runcfg

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/units"
)

func parseFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestStartRejectsNegativeInterval(t *testing.T) {
	f := parseFlags(t, "-metrics", "x.csv", "-metrics-interval", "-1")
	if _, err := f.Start(false, nil); err == nil ||
		!strings.Contains(err.Error(), "metrics-interval") {
		t.Fatalf("negative interval error = %v", err)
	}
}

// smallRun executes a tiny CA run through Apply, like a command would.
func smallRun(t *testing.T, sess *Session, name string, trace bool) {
	t.Helper()
	cfg := engine.Config{Iterations: 2, Trace: trace,
		FastCapacity: 2 * units.GB, SlowCapacity: 16 * units.GB}
	done := sess.Apply(name, &cfg)
	r, err := engine.RunCA(models.MLP(4096, []int{4096, 4096}, 1000, 16), policy.CALM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := done(r); err != nil {
		t.Fatal(err)
	}
}

func TestSingleRunExports(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "run.csv")
	sumPath := filepath.Join(dir, "run.json")
	tracePath := filepath.Join(dir, "run.jsonl")
	f := parseFlags(t, "-metrics", csvPath, "-metrics-summary", sumPath, "-trace", tracePath)
	sess, err := f.Start(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	smallRun(t, sess, "mlp3-ca_lm", true)
	// Single-run sessions write to the exact paths given.
	for _, p := range []string{csvPath, sumPath, tracePath} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing export: %v", err)
		}
	}
	sf, err := os.Open(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := metrics.ReadSummary(sf)
	sf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Meta["run"] != "mlp3-ca_lm" {
		t.Errorf("run meta = %q", sum.Meta["run"])
	}
}

func TestSingleRunErrorsOnTracelessMode(t *testing.T) {
	dir := t.TempDir()
	f := parseFlags(t, "-trace", filepath.Join(dir, "t.jsonl"))
	sess, err := f.Start(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	cfg := engine.Config{Iterations: 1,
		FastCapacity: 2 * units.GB, SlowCapacity: 16 * units.GB}
	done := sess.Apply("mlp3-2lm_0", &cfg)
	r, err := engine.Run2LM(models.MLP(4096, []int{4096, 4096}, 1000, 16), false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := done(r); err == nil || !strings.Contains(err.Error(), "no trace") {
		t.Fatalf("traceless single run error = %v", err)
	}
}

func TestMultiRunSuffixesPathsAndSkipsTraceless(t *testing.T) {
	dir := t.TempDir()
	f := parseFlags(t,
		"-metrics", filepath.Join(dir, "out.csv"),
		"-trace", filepath.Join(dir, "out.jsonl"))
	sess, err := f.Start(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	smallRun(t, sess, "sweep-a", true)
	smallRun(t, sess, "sweep-b", true)
	for _, want := range []string{"out-sweep-a.csv", "out-sweep-b.csv",
		"out-sweep-a.jsonl", "out-sweep-b.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing suffixed export %s: %v", want, err)
		}
	}
	// A baseline mode produces no trace; multi-run sessions skip it
	// silently instead of failing the sweep.
	cfg := engine.Config{Iterations: 1,
		FastCapacity: 2 * units.GB, SlowCapacity: 16 * units.GB}
	done := sess.Apply("sweep-2lm", &cfg)
	r, err := engine.Run2LM(models.MLP(4096, []int{4096, 4096}, 1000, 16), false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := done(r); err != nil {
		t.Fatalf("traceless multi run not skipped: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "out-sweep-2lm.jsonl")); err == nil {
		t.Error("traceless run wrote a trace file")
	}
	// Its metrics still export.
	if _, err := os.Stat(filepath.Join(dir, "out-sweep-2lm.csv")); err != nil {
		t.Errorf("traceless run's metrics missing: %v", err)
	}
}

// TestLiveEndpoint serves a completed run over -listen and checks both
// the Prometheus text and the expvar JSON views.
func TestLiveEndpoint(t *testing.T) {
	f := parseFlags(t, "-listen", "127.0.0.1:0")
	var status strings.Builder
	sess, err := f.Start(true, &status)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	addr := sess.Addr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	if !strings.Contains(status.String(), addr) {
		t.Errorf("status %q does not announce %q", status.String(), addr)
	}
	smallRun(t, sess, "live-a", false)
	smallRun(t, sess, "live-b", false)

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	prom := get("/metrics")
	for _, want := range []string{"# TYPE ca_engine_iterations counter",
		`run="live-a"`, `run="live-b"`} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, "cametrics") || !strings.Contains(vars, "live-a") {
		t.Errorf("/debug/vars missing published runs: %.200s", vars)
	}
	if idx := get("/"); !strings.Contains(idx, "/metrics") {
		t.Errorf("index page does not link /metrics: %.200s", idx)
	}
}

// TestSchedulerFlags wires -parallel and -cache through Start into the
// session scheduler: a second session over the same cache directory
// must serve the identical run from disk, and an instrumented session
// must bypass the cache.
func TestSchedulerFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	model := func() *models.Model { return models.MLP(4096, []int{4096, 4096}, 1000, 16) }
	cfg := engine.Config{Iterations: 2,
		FastCapacity: 2 * units.GB, SlowCapacity: 16 * units.GB}

	runOnce := func(f *Flags) (*engine.Result, sched.CacheStats) {
		sess, err := f.Start(false, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		c := cfg
		done := sess.Apply("flagtest", &c)
		results, err := sess.Scheduler(nil).Run([]sched.Cell{
			{Name: "flagtest", Model: model(), Mode: "CA:LM", Cfg: c, Done: done}})
		if err != nil {
			t.Fatal(err)
		}
		return results[0], sess.CacheStats()
	}

	cold, st := runOnce(parseFlags(t, "-parallel", "2", "-cache", dir))
	if st.Stores != 1 || st.Hits != 0 {
		t.Fatalf("cold stats = %+v, want 1 store", st)
	}
	warm, st := runOnce(parseFlags(t, "-cache", dir))
	if st.Hits != 1 {
		t.Fatalf("warm stats = %+v, want 1 hit", st)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("cached result differs across processes (sessions)")
	}

	// A traced session must not touch the cache.
	tracePath := filepath.Join(t.TempDir(), "t.jsonl")
	_, st = runOnce(parseFlags(t, "-cache", dir, "-trace", tracePath))
	if st.Hits != 0 || st.Stores != 0 {
		t.Fatalf("instrumented session touched the cache: %+v", st)
	}

	// Without -cache the session scheduler is uncached and CacheStats is
	// all zeros.
	if _, st := runOnce(parseFlags(t)); st != (sched.CacheStats{}) {
		t.Fatalf("cacheless session has stats %+v", st)
	}
}

// TestSchedulerMemoized: every Scheduler call on a session returns the
// same instance — one cache table and one lifetime counter set
// span all of a command's batches — and the first progress writer wins.
func TestSchedulerMemoized(t *testing.T) {
	f := parseFlags(t, "-parallel", "3")
	sess, err := f.Start(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	s1 := sess.Scheduler(io.Discard)
	s2 := sess.Scheduler(nil) // later writers must not replace the first
	if s1 != s2 {
		t.Fatal("Scheduler returned distinct instances")
	}
	if s1.Workers != 3 {
		t.Fatalf("workers = %d, want the -parallel value 3", s1.Workers)
	}
	if s1.Progress == nil {
		t.Fatal("first call's progress writer was dropped")
	}
}

// TestCachelessSessionLifecycle: a session without -cache (and without
// -listen) still answers CacheStats with zeros and closes cleanly —
// commands call both unconditionally.
func TestCachelessSessionLifecycle(t *testing.T) {
	sess, err := parseFlags(t).Start(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.CacheStats(); got != (sched.CacheStats{}) {
		t.Fatalf("cacheless CacheStats = %+v, want zeros", got)
	}
	if sess.Addr() != "" {
		t.Fatalf("cacheless session reports address %q", sess.Addr())
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCachedSessionSchedulerUsesCache: the -cache flag's store reaches
// the memoized scheduler, and a repeated batch is served from it.
func TestCachedSessionSchedulerUsesCache(t *testing.T) {
	f := parseFlags(t, "-cache", t.TempDir(), "-parallel", "1")
	sess, err := f.Start(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	s := sess.Scheduler(nil)
	cells := []sched.Cell{{
		Name: "lifecycle",
		Build: func() (*models.Model, error) {
			return models.MLP(2048, []int{2048}, 100, 8), nil
		},
		Mode: "CA:LM",
		Cfg:  engine.Config{Iterations: 2, FastCapacity: units.GB, SlowCapacity: 8 * units.GB},
	}}
	if _, err := s.Run(cells); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(cells); err != nil {
		t.Fatal(err)
	}
	if s.Simulations() != 1 {
		t.Fatalf("simulations = %d, want 1 (second batch cache-served)", s.Simulations())
	}
	if st := sess.CacheStats(); st.Hits == 0 {
		t.Fatalf("cache stats = %+v, want a hit", st)
	}
}
