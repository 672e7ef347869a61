package engine

import (
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/metrics"
)

// RegisterPlatformMetrics registers the device- and copy-engine-level
// series: cumulative traffic and busy time per device, achieved bandwidth
// as a fraction of the mixed peak (the Fig. 6 bus-utilization metric,
// sampled over time instead of averaged per run), and the asynchronous
// mover's queue depth and backlog. A nil registry registers nothing.
// Sampling is wired separately: whoever owns the registry attaches it to
// the platform's clock as an observer (Clock.Observe).
// It is exported for owners outside the engine: the cluster registers the
// series into its cluster-level registry so a multi-tenant run exports the
// shared devices' traffic and utilization alongside the per-tenant series.
func RegisterPlatformMetrics(reg *metrics.Registry, p *memsim.Platform) {
	if !reg.Enabled() {
		return
	}
	for _, d := range []*memsim.Device{p.Fast, p.Slow} {
		name := d.Name
		reg.CounterFunc("mem_"+name+"_read_bytes", func() float64 {
			return float64(d.Counters().ReadBytes)
		})
		reg.CounterFunc("mem_"+name+"_write_bytes", func() float64 {
			return float64(d.Counters().WriteBytes)
		})
		reg.CounterFunc("mem_"+name+"_busy_seconds", func() float64 {
			return d.Counters().BusyTime
		})
		reg.Gauge("mem_"+name+"_bw_util", busUtil(p.Clock, d))
	}
	reg.Gauge("copy_queue_depth", func() float64 { return float64(p.Copier.QueueDepth()) })
	reg.Gauge("copy_backlog_seconds", func() float64 { return p.Copier.Backlog() })
}

// busUtil returns the live reading of d's achieved bandwidth since time
// zero as a fraction of its mixed peak: the one expression behind both the
// mem_<device>_bw_util gauge and the utilisation online guidance steers by.
func busUtil(clk *memsim.Clock, d *memsim.Device) func() float64 {
	peak := (d.Profile.PeakRead + d.Profile.PeakWrite) / 2
	return func() float64 {
		now := clk.Now()
		if now <= 0 || peak <= 0 {
			return 0
		}
		return float64(d.Counters().TotalBytes()) / now / peak
	}
}

// runMetrics is the engine's own instrumentation: the per-iteration kernel
// vs. stall split as cumulative counters plus duration histograms. All
// fields are nil when metrics are off — every method on them is a no-op,
// so call sites stay unconditional.
type runMetrics struct {
	kernelSeconds *metrics.Counter
	stallSeconds  *metrics.Counter
	iterations    *metrics.Counter
	kernelHist    *metrics.Histogram
	iterHist      *metrics.Histogram
}

// newRunMetrics registers the engine series. With a nil registry every
// field stays nil (nil-safe no-ops).
func newRunMetrics(reg *metrics.Registry) runMetrics {
	return runMetrics{
		kernelSeconds: reg.Counter("engine_kernel_seconds"),
		stallSeconds:  reg.Counter("engine_stall_seconds"),
		iterations:    reg.Counter("engine_iterations"),
		kernelHist:    reg.Histogram("engine_kernel"),
		iterHist:      reg.Histogram("engine_iter"),
	}
}

func (rm runMetrics) kernel(dt float64) {
	rm.kernelSeconds.Add(dt)
	rm.kernelHist.Observe(dt)
}

func (rm runMetrics) stall(dt float64) {
	if dt > 0 {
		rm.stallSeconds.Add(dt)
	}
}

func (rm runMetrics) iter(dt float64) {
	rm.iterations.Inc()
	rm.iterHist.Observe(dt)
}

// finishMetrics stamps the run identity into the registry, takes the final
// sample so the series ends at the run's last virtual instant, and stops
// observing the clock so it stays the last: on a shared platform other
// tenants keep advancing the clock after this run has finished.
func finishMetrics(reg *metrics.Registry, clk *memsim.Clock, model, mode string) {
	if !reg.Enabled() {
		return
	}
	reg.SetMeta("model", model)
	reg.SetMeta("mode", mode)
	reg.Flush(clk.Now())
	clk.Unobserve(reg)
}
