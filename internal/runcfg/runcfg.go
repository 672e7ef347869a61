// Package runcfg is the shared instrumentation wiring of the run
// commands (carun, casweep, cafigures): one flag surface for execution
// tracing, fault injection, invariant checking, metrics sampling/export
// and the live HTTP endpoint, applied uniformly to every engine run a
// command makes. Adding a flag here lands it in all runners at once.
package runcfg

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"cachedarrays/internal/cluster"
	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/tracing"
)

// Flags holds the shared instrumentation and scheduling flag values.
type Flags struct {
	Trace           string
	Check           bool
	Faults          string
	Metrics         string
	MetricsSummary  string
	MetricsInterval float64
	Listen          string
	Parallel        int
	Cache           string
}

// CacheUsage is the -cache flag's help text, shared with cacheck, which
// takes that one flag of this set.
const CacheUsage = "content-addressed result cache directory: identical runs are served from disk instead of re-simulated (instrumented runs bypass it)"

// Register installs the shared instrumentation flags on a flag set.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Trace, "trace", "",
		"write the execution trace to this file (CA modes; .jsonl for the raw event log, anything else for Chrome/Perfetto trace-event JSON)")
	fs.BoolVar(&f.Check, "check", false,
		"audit runtime invariants at every clock advance (CA modes; slower)")
	fs.StringVar(&f.Faults, "faults", "",
		"inject a deterministic fault schedule (CA modes), e.g. 'seed=42;allocfail:fast:t0=0.1,t1=0.3,p=0.5;copystall:nvram:t0=0,stall=2ms'")
	fs.StringVar(&f.Metrics, "metrics", "",
		"write the sampled metrics time series as wide CSV to this file")
	fs.StringVar(&f.MetricsSummary, "metrics-summary", "",
		"write the compact metrics JSON summary to this file (cametrics diff input)")
	fs.Float64Var(&f.MetricsInterval, "metrics-interval", metrics.DefaultInterval,
		"metrics sampling cadence in virtual seconds")
	fs.StringVar(&f.Listen, "listen", "",
		"serve live metrics over HTTP on this address (Prometheus text at /metrics, expvar at /debug/vars)")
	fs.IntVar(&f.Parallel, "parallel", runtime.GOMAXPROCS(0),
		"concurrent simulation runs (each run stays deterministic; 1 = serial)")
	fs.StringVar(&f.Cache, "cache", "", CacheUsage)
	return f
}

// metricsWanted reports whether any metrics sink was requested.
func (f *Flags) metricsWanted() bool {
	return f.Metrics != "" || f.MetricsSummary != "" || f.Listen != ""
}

// Session is a command's instrumentation state: the metrics hub behind
// the live endpoint plus the output-writing discipline. One Session
// serves all of a command's runs.
type Session struct {
	flags *Flags
	multi bool

	hub   *metrics.Hub
	srv   *http.Server
	ln    net.Listener
	cache *sched.Cache

	// schedOnce memoizes the session's scheduler: one instance serves
	// every batch a command submits, so the cache table and the lifetime
	// simulation/dedup counters span all of its figures.
	schedOnce sync.Once
	sched     *sched.Scheduler

	// mu serializes status prints and output writes from parallel sweeps.
	mu     sync.Mutex
	status io.Writer
}

// Start validates the flags and brings up the live HTTP endpoint when
// requested. multi declares whether the command makes more than one
// engine run — multi-run sessions suffix every output path with the run
// name, and silently skip trace export for modes that produce no trace.
// Status lines (where outputs landed) go to status; nil discards them.
func (f *Flags) Start(multi bool, status io.Writer) (*Session, error) {
	if status == nil {
		status = io.Discard
	}
	s := &Session{flags: f, multi: multi, status: status}
	if f.metricsWanted() {
		if f.MetricsInterval < 0 {
			return nil, fmt.Errorf("runcfg: negative -metrics-interval %g", f.MetricsInterval)
		}
		s.hub = metrics.NewHub()
	}
	if f.Listen != "" {
		ln, err := net.Listen("tcp", f.Listen)
		if err != nil {
			return nil, fmt.Errorf("runcfg: -listen: %w", err)
		}
		s.ln = ln
		s.srv = &http.Server{Handler: s.hub.Handler()}
		go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
		fmt.Fprintf(status, "metrics     : serving on http://%s/metrics (expvar at /debug/vars)\n", ln.Addr())
	}
	if f.Cache != "" {
		cache, err := sched.OpenCache(f.Cache)
		if err != nil {
			return nil, err
		}
		s.cache = cache
	}
	return s, nil
}

// Scheduler returns the session's run scheduler: the -parallel worker
// bound, the -cache result store (nil when off) and a progress line on
// progress (usually stderr, keeping -csv stdout machine-readable; nil
// disables it). The instance is memoized — every call returns the same
// scheduler, so concurrent batches share one cache table and identical
// cells dedup across a command's whole figure sweep. The
// first call's progress writer wins.
func (s *Session) Scheduler(progress io.Writer) *sched.Scheduler {
	s.schedOnce.Do(func() {
		s.sched = &sched.Scheduler{Workers: s.flags.Parallel, Cache: s.cache, Progress: progress}
	})
	return s.sched
}

// CacheStats reports the session cache's traffic (zeros when -cache is
// off).
func (s *Session) CacheStats() sched.CacheStats {
	return s.cache.Stats()
}

// Addr returns the live endpoint's bound address ("" when -listen is off);
// with -listen :0 this is where the ephemeral port shows up.
func (s *Session) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts down the live endpoint.
func (s *Session) Close() error {
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

// Apply merges the shared instrumentation into one named run's config
// and returns the completion callback that exports the run's outputs.
// It has the experiments.Options.Instrument shape and is safe for
// concurrent calls (parallel sweeps): per-run outputs go to distinct,
// name-suffixed files.
func (s *Session) Apply(name string, cfg *engine.Config) func(*engine.Result) error {
	cfg.CheckEveryAdvance = cfg.CheckEveryAdvance || s.flags.Check
	if s.flags.Faults != "" {
		cfg.FaultSpec = s.flags.Faults
	}
	if s.flags.Trace != "" {
		cfg.Trace = true
	}
	var reg *metrics.Registry
	if s.flags.metricsWanted() {
		reg = metrics.New(s.flags.MetricsInterval)
		reg.SetMeta("run", name)
		cfg.Metrics = reg
		s.hub.Register(name, reg)
	}
	return func(r *engine.Result) error {
		if s.flags.Trace != "" {
			if err := s.writeTrace(name, r); err != nil {
				return err
			}
		}
		if reg != nil {
			if err := s.writeMetrics(name, reg); err != nil {
				return err
			}
		}
		return nil
	}
}

// ApplyCluster merges the shared instrumentation into a cluster run's
// config and returns the completion callback that exports its outputs.
// It is the cluster-shaped sibling of Apply: -check/-faults/-trace land
// on the engine config (the cluster validates faults itself), -metrics
// and friends build the cluster-level registry plus one tenant-labeled
// registry per tenant, each served live on the hub with
// run="..."/tenant="..." labels and exported to tenant-suffixed files.
func (s *Session) ApplyCluster(name string, cfg *cluster.Config) func(*cluster.Result) error {
	cfg.Engine.CheckEveryAdvance = cfg.Engine.CheckEveryAdvance || s.flags.Check
	if s.flags.Faults != "" {
		cfg.Engine.FaultSpec = s.flags.Faults
	}
	if s.flags.Trace != "" {
		cfg.Engine.Trace = true
	}
	multi := len(cfg.Jobs) > 1
	var reg *metrics.Registry
	var tenantLabels []string
	tenantRegs := map[string]*metrics.Registry{}
	if s.flags.metricsWanted() {
		reg = metrics.New(s.flags.MetricsInterval)
		reg.SetMeta("run", name)
		cfg.Engine.Metrics = reg
		s.hub.Register(name, reg)
		if multi {
			cfg.TenantMetrics = func(label string) *metrics.Registry {
				r := metrics.New(s.flags.MetricsInterval)
				r.SetMeta("run", name)
				r.SetMeta("tenant", label)
				s.hub.RegisterLabeled(name+"/"+label,
					fmt.Sprintf("run=%q,tenant=%q", name, label), r)
				s.mu.Lock()
				tenantLabels = append(tenantLabels, label)
				tenantRegs[label] = r
				s.mu.Unlock()
				return r
			}
		}
	}
	return func(r *cluster.Result) error {
		if s.flags.Trace != "" {
			if len(r.Tenants) == 1 {
				// N=1 keeps the solo trace on the tenant's own result
				// (byte-identical to the solo engine run).
				if err := s.writeTrace(name, r.Tenants[0].Result); err != nil {
					return err
				}
			} else if err := s.writeClusterTrace(name, r.Trace); err != nil {
				return err
			}
		}
		if reg != nil {
			if err := s.writeMetrics(name, reg); err != nil {
				return err
			}
			for _, label := range tenantLabels {
				// Tenant files always carry the tenant suffix, whatever
				// the session's multi-run setting — they coexist with
				// the cluster-level files by construction.
				csv := suffix(s.path(s.flags.Metrics, name), label)
				sum := suffix(s.path(s.flags.MetricsSummary, name), label)
				if err := s.writeMetricsPaths(csv, sum, tenantRegs[label]); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// Registry creates, names and hub-registers a registry for auxiliary
// series outside any engine run (e.g. the router's placement counters).
// It returns nil — a valid, disabled registry — when no metrics sink was
// requested.
func (s *Session) Registry(name string) *metrics.Registry {
	if !s.flags.metricsWanted() {
		return nil
	}
	reg := metrics.New(s.flags.MetricsInterval)
	reg.SetMeta("run", name)
	s.hub.Register(name, reg)
	return reg
}

// path suffixes an output path with the run name for multi-run sessions:
// out.csv + fig7-vgg_116-30 -> out-fig7-vgg_116-30.csv.
func (s *Session) path(base, name string) string {
	if !s.multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + name + ext
}

// suffix appends a suffix to a path before its extension, unconditionally.
func suffix(base, sfx string) string {
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + sfx + ext
}

// writeTrace exports a run's execution trace, verifying first that it is
// an exact decomposition of the run's aggregates. The extension picks
// the format: .jsonl gets the raw event log (catrace's input), anything
// else the Chrome trace-event JSON.
func (s *Session) writeTrace(name string, r *engine.Result) error {
	if len(r.Trace) == 0 {
		if s.multi {
			return nil // baseline modes produce no trace; skip in sweeps
		}
		return fmt.Errorf("-trace: mode produced no trace (tracing covers the CA engines)")
	}
	if err := tracing.Verify(r.Trace); err != nil {
		return err
	}
	return s.writeTraceFile(s.path(s.flags.Trace, name), r.Trace)
}

// writeClusterTrace exports a multi-tenant run's multiplexed trace after
// verifying every tenant lane and the cross-tenant traffic partition.
func (s *Session) writeClusterTrace(name string, events []tracing.Event) error {
	if len(events) == 0 {
		return fmt.Errorf("-trace: cluster run produced no trace")
	}
	if err := tracing.VerifyLanes(events); err != nil {
		return err
	}
	return s.writeTraceFile(s.path(s.flags.Trace, name), events)
}

// writeTraceFile writes verified events to path in the extension-selected
// format: .jsonl for the raw event log, Chrome trace-event JSON otherwise.
func (s *Session) writeTraceFile(path string, events []tracing.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = tracing.WriteJSONL(f, events)
	} else {
		err = tracing.WriteChrome(f, events)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	fmt.Fprintf(s.status, "trace       : %d events -> %s (consistency verified)\n", len(events), path)
	s.mu.Unlock()
	return nil
}

// writeMetrics exports a run's sampled series (CSV) and summary (JSON).
func (s *Session) writeMetrics(name string, reg *metrics.Registry) error {
	return s.writeMetricsPaths(s.path(s.flags.Metrics, name), s.path(s.flags.MetricsSummary, name), reg)
}

// writeMetricsPaths is writeMetrics with explicit output paths (tenant
// exports suffix the session paths themselves).
func (s *Session) writeMetricsPaths(csvPath, sumPath string, reg *metrics.Registry) error {
	if s.flags.Metrics != "" {
		if err := writeFile(csvPath, reg.WriteCSV); err != nil {
			return err
		}
		s.mu.Lock()
		fmt.Fprintf(s.status, "metrics     : %d samples -> %s\n", reg.Samples(), csvPath)
		s.mu.Unlock()
	}
	if s.flags.MetricsSummary != "" {
		write := func(w io.Writer) error { return metrics.WriteSummary(w, reg.Summarize()) }
		if err := writeFile(sumPath, write); err != nil {
			return err
		}
		s.mu.Lock()
		fmt.Fprintf(s.status, "metrics     : summary -> %s\n", sumPath)
		s.mu.Unlock()
	}
	return nil
}

// writeFile creates path and streams write into it, reporting the first
// error including the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
