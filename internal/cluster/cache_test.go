package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/units"
)

var cacheCfg = engine.Config{
	FastCapacity: 48 * units.MB,
	SlowCapacity: 1 * units.GB,
	Iterations:   2,
}

// TestClusterCacheHitIdentity pins the cluster-cache contract end to end:
// a cold memoized run equals an uncached fresh simulation, a warm run on
// the same scheduler is served without simulating, and a second process
// (modeled as a fresh scheduler over the same cache directory) is served
// from disk — all reflect.DeepEqual-identical.
func TestClusterCacheHitIdentity(t *testing.T) {
	jobs := BenchMix(11, 6)
	fresh, err := Run(Config{Engine: cacheCfg, Jobs: jobs})
	if err != nil {
		t.Fatalf("fresh: %v", err)
	}

	dir := t.TempDir()
	cache, err := sched.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Scheduler{Cache: cache}
	cold, err := Run(Config{Engine: cacheCfg, Jobs: jobs, Sched: s})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if !reflect.DeepEqual(cold, fresh) {
		t.Fatalf("cold memoized run differs from fresh simulation\ncold:  %+v\nfresh: %+v", cold, fresh)
	}
	if got := s.Simulations(); got != 1 {
		t.Fatalf("cold run simulated %d times, want 1", got)
	}

	warm, err := Run(Config{Engine: cacheCfg, Jobs: jobs, Sched: s})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if got := s.Simulations(); got != 1 {
		t.Fatalf("warm run re-simulated (simulations=%d, want 1)", got)
	}
	if !reflect.DeepEqual(warm, fresh) {
		t.Fatalf("warm hit differs from fresh simulation")
	}

	// Cross-process reuse: a new scheduler over the same directory decodes
	// the disk entry (integrity-checked binary) instead of simulating.
	cache2, err := sched.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := &sched.Scheduler{Cache: cache2}
	disk, err := Run(Config{Engine: cacheCfg, Jobs: jobs, Sched: s2})
	if err != nil {
		t.Fatalf("disk: %v", err)
	}
	if got := s2.Simulations(); got != 0 {
		t.Fatalf("disk-warm run simulated %d times, want 0", got)
	}
	if !reflect.DeepEqual(disk, fresh) {
		t.Fatalf("disk-decoded hit differs from fresh simulation")
	}
}

// TestClusterCacheKeySensitivity proves the key covers what shapes the
// result — platform config, job identity (names included — they live in
// the Result), mode, arrival, iteration overrides, baselines presence —
// by asserting distinct keys, and stability by recomputing.
func TestClusterCacheKeySensitivity(t *testing.T) {
	base := Config{Engine: cacheCfg, Jobs: []Job{
		{Name: "a", Model: movementHeavy(), Mode: "CA:LM"},
		{Name: "b", Model: movementHeavy(), Mode: "2LM:M", Arrival: 0.001},
	}}
	k0, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	if k0 != again {
		t.Fatalf("key not stable: %s vs %s", k0, again)
	}

	mutate := map[string]func(*Config){
		"platform":   func(c *Config) { c.Engine.FastCapacity *= 2 },
		"iterations": func(c *Config) { c.Jobs[0].Iterations = 5 },
		"name":       func(c *Config) { c.Jobs[0].Name = "a2" },
		"mode":       func(c *Config) { c.Jobs[1].Mode = "OS:page" },
		"arrival":    func(c *Config) { c.Jobs[1].Arrival = 0.002 },
		"model":      func(c *Config) { c.Jobs[0].Model = models.MLP(512, []int{1024}, 10, 32) },
		"baselines":  func(c *Config) { c.Baselines = &sched.Scheduler{} },
	}
	seen := map[string]string{k0: "base"}
	for label, mut := range mutate {
		cfg := base
		cfg.Jobs = append([]Job(nil), base.Jobs...)
		mut(&cfg)
		k, err := Key(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", label, prev)
		}
		seen[k] = label
	}
}

// TestClusterCacheInstrumentedBypass pins that instrumented runs never
// touch the cache: tracing, invariant audits, a cluster metrics registry
// and per-tenant registries all simulate fresh and store nothing.
func TestClusterCacheInstrumentedBypass(t *testing.T) {
	cache, err := sched.OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Scheduler{Cache: cache}
	jobs := BenchMix(11, 3)
	variants := map[string]func(*Config){
		"trace":   func(c *Config) { c.Engine.Trace = true },
		"audit":   func(c *Config) { c.Engine.CheckEveryAdvance = true },
		"metrics": func(c *Config) { c.Engine.Metrics = metrics.New(0.01) },
		"tenant-metrics": func(c *Config) {
			c.TenantMetrics = func(string) *metrics.Registry { return metrics.New(0.01) }
		},
	}
	for label, mut := range variants {
		cfg := Config{Engine: cacheCfg, Jobs: jobs, Sched: s}
		mut(&cfg)
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	if got := s.Simulations(); got != 0 {
		t.Fatalf("instrumented runs went through Memo (simulations=%d, want 0)", got)
	}
	if st := cache.Stats(); st.Stores != 0 {
		t.Fatalf("instrumented runs stored %d cache entries, want 0", st.Stores)
	}
}

// TestClusterCacheSingleFlight submits the identical cluster run from
// many goroutines against one scheduler: exactly one simulation runs and
// every caller receives a DeepEqual-identical result.
func TestClusterCacheSingleFlight(t *testing.T) {
	cache, err := sched.OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Scheduler{Cache: cache}
	jobs := BenchMix(5, 4)
	const callers = 8
	results := make([]*Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer wg.Done()
			results[i], errs[i] = Run(Config{Engine: cacheCfg, Jobs: jobs, Sched: s})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := s.Simulations(); got != 1 {
		t.Fatalf("%d concurrent identical runs simulated %d times, want 1", callers, got)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d received a different result", i)
		}
	}
}

// TestRouteReusesClusterCache pins Route's per-platform memoization: a
// repeated identical routed run re-serves every platform from the cache
// (zero new simulations) and returns a DeepEqual-identical result.
func TestRouteReusesClusterCache(t *testing.T) {
	cache, err := sched.OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Scheduler{Cache: cache}
	rcfg := RouterConfig{
		Platforms: []engine.Config{cacheCfg, cacheCfg},
		Jobs:      BenchMix(13, 6),
		Policy:    RoundRobin,
		Workers:   2,
		Sched:     s,
	}
	first, err := Route(rcfg)
	if err != nil {
		t.Fatalf("first route: %v", err)
	}
	sims := s.Simulations()
	if sims == 0 {
		t.Fatalf("first routed run simulated nothing")
	}
	second, err := Route(rcfg)
	if err != nil {
		t.Fatalf("second route: %v", err)
	}
	if got := s.Simulations(); got != sims {
		t.Fatalf("repeat routed run re-simulated: %d -> %d", sims, got)
	}
	if !reflect.DeepEqual(second, first) {
		t.Fatalf("cached routed run differs from the first")
	}
}

// textConfigLines is the config hash keys used up to the v2 headers: one
// name=value line per leaf of the canonical config, by a reflection
// walk. It survives only as this fixture, to rebuild keys of the older
// formats. Keyed configs hold no slices and only nil pointers.
func textConfigLines(w io.Writer, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			textConfigLines(w, name+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Pointer:
		fmt.Fprintf(w, "%s=nil\n", name)
	default:
		fmt.Fprintf(w, "%s=%v\n", name, v.Interface())
	}
}

// legacyKey is the whole-run key this package computed under an older
// header: "cachedarrays-cluster v1" followed each job's config lines with
// its model's SaveJSON text, "cachedarrays-cluster v2" with its streamed
// digest.
func legacyKey(t *testing.T, version int, cfg Config) string {
	t.Helper()
	tenants, ecfg, err := prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "cachedarrays-cluster v%d\nbaselines=%t\njobs=%d\n", version, cfg.Baselines != nil, len(tenants))
	textConfigLines(h, "platform", reflect.ValueOf(ecfg.Canonical()))
	for _, tn := range tenants {
		pre := fmt.Sprintf("job%d", tn.idx)
		fmt.Fprintf(h, "%s.name=%s\n%s.mode=%s\n%s.arrival=%g\n", pre, tn.name, pre, tn.mode, pre, tn.job.Arrival)
		textConfigLines(h, pre+".cfg", reflect.ValueOf(tn.cfg.Canonical()))
		fmt.Fprintf(h, "%s.model=", pre)
		write := tn.model.WriteDigest
		if version == 1 {
			write = tn.model.SaveJSON
		}
		if err := write(h); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestV1ClusterEntryIsASilentMiss: entries stored under the v1 and v2
// keys are never asked for again — the run misses cleanly (no error,
// nothing counted corrupt), stores under its v3 key, and leaves the old
// files byte for byte alone.
func TestV1ClusterEntryIsASilentMiss(t *testing.T) {
	cfg := Config{Engine: cacheCfg, Jobs: BenchMix(11, 3)}
	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	old, err := sched.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	legacy := []string{legacyKey(t, 1, cfg), legacyKey(t, 2, cfg)}
	// The keys builds of those formats computed for this run: they pin
	// the fixture to the real old preimages.
	for i, want := range []string{
		"7491fdec8d6feac90f3141ff60f473494d40c85a132eab41d89c0991f33ed9d6",
		"08ef23a36332f4d5e22147b5c1ef44c737d5825f866a7288f249596010dd0b02",
	} {
		if legacy[i] != want {
			t.Fatalf("v%d fixture key = %s, want %s", i+1, legacy[i], want)
		}
	}
	before := map[string]string{}
	for _, k := range legacy {
		if err := old.PutAny(k, fresh); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, k+".json"))
		if err != nil {
			t.Fatal(err)
		}
		before[k] = string(b)
	}

	cache, err := sched.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sched = &sched.Scheduler{Cache: cache}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 1 || st.Stores != 1 || st.Corrupt != 0 {
		t.Errorf("stats over a v1/v2 directory = %+v, want a clean miss and one store", st)
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Error("the re-simulated run differs from the one the old entries hold")
	}
	for k, b := range before {
		if after, err := os.ReadFile(filepath.Join(dir, k+".json")); err != nil || string(after) != b {
			t.Errorf("the old entry %s was touched (read error: %v)", k, err)
		}
	}
	if v3, err := Key(cfg); err != nil || before[v3] != "" {
		t.Errorf("v3 key %q (error %v) must differ from the old keys", v3, err)
	}
}
