// Package metrics is the virtual-time telemetry layer: a registry of
// counters, gauges and histograms sampled on a configurable virtual-time
// cadence into in-memory time series.
//
// Where the execution trace (internal/tracing) records every *event*, the
// metrics registry records *state over time*: tier occupancy, achieved
// bandwidth, queue depths, decision counters — the continuously-sampled
// tier-level telemetry online-guidance systems drive their policies with,
// and the raw material for run-to-run regression comparison.
//
// The package follows the tracing layer's nil-safety discipline exactly:
// every method on a nil *Registry, *Counter or *Histogram is a no-op, so
// the simulator layers thread a registry unconditionally and an
// uninstrumented run pays one branch per hot path. The registry never
// advances the clock and never perturbs simulation state, so instrumented
// runs are byte-identical to uninstrumented ones.
//
// Samples are taken by the virtual clock: an enabled registry observes the
// clock it was attached to (Clock.Observe), Clock.Advance calls OnAdvance
// after every step, and the registry samples all series whenever the step
// crossed a sampling boundary. Because virtual time moves in discrete
// kernel/copy-sized steps, a sample is stamped with the first advance *at
// or after* its boundary — deterministic for a deterministic simulation,
// which is what makes two runs of the same configuration diff to zero.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
)

// DefaultInterval is the sampling cadence in virtual seconds when the
// caller does not choose one: 10 ms of simulated time, a few hundred
// points per paper-scale iteration.
const DefaultInterval = 1e-2

// Kind distinguishes monotonically non-decreasing series (counters) from
// instantaneous ones (gauges). The kind shows up in the Prometheus TYPE
// line and tells the diff which statistics are meaningful.
type Kind string

const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
)

// column is one registered series: a name, a kind, a source closure and
// the samples taken so far.
type column struct {
	name    string
	kind    Kind
	fn      func() float64
	samples []float64
}

// Registry collects series and samples them on a virtual-time cadence.
// A nil Registry is valid and records nothing.
type Registry struct {
	// mu guards the sampled data (times, columns' samples, histogram
	// state) against the HTTP serving goroutine. The simulator itself is
	// single-goroutine: registration and sampling happen there.
	mu sync.Mutex

	interval float64
	next     float64
	meta     map[string]string

	times  []float64
	cols   []*column
	byName map[string]*column
	hists  []*Histogram
}

// New creates a registry sampling every interval virtual seconds.
// Non-positive intervals take DefaultInterval.
func New(interval float64) *Registry {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Registry{
		interval: interval,
		next:     interval,
		meta:     map[string]string{},
		byName:   map[string]*column{},
	}
}

// Enabled reports whether the registry records anything; callers guard
// optional work (never correctness) behind it.
func (r *Registry) Enabled() bool { return r != nil }

// Interval returns the sampling cadence in virtual seconds.
func (r *Registry) Interval() float64 {
	if r == nil {
		return 0
	}
	return r.interval
}

// SetMeta attaches a key/value annotation (model name, mode, run name)
// carried into the JSON summary.
func (r *Registry) SetMeta(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.meta[key] = value
	r.mu.Unlock()
}

// register adds a series, backfilling zeros so its sample vector stays
// aligned with series registered before any sampling happened.
func (r *Registry) register(name string, kind Kind, fn func() float64) *column {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate series %q", name))
	}
	c := &column{name: name, kind: kind, fn: fn, samples: make([]float64, len(r.times))}
	r.cols = append(r.cols, c)
	r.byName[name] = c
	return c
}

// Counter registers a registry-owned cumulative counter. On a nil
// registry it returns nil, whose Add/Inc are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	ctr := &Counter{}
	r.register(name, KindCounter, ctr.Value)
	return ctr
}

// CounterFunc registers a cumulative counter sourced from a closure — the
// usual shape for simulator layers that already keep their own stats
// structs. The closure is only called from the sampling path (the
// simulation goroutine).
func (r *Registry) CounterFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, KindCounter, fn)
}

// Gauge registers an instantaneous series sourced from a closure
// (occupancy, queue depth, evictable bytes).
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, KindGauge, fn)
}

// Histogram registers a distribution series. Observations land in
// power-of-two buckets; the time series carries the histogram's running
// count and sum as two counter columns (<name>_count, <name>_sum), the
// summary and Prometheus export carry the full bucket set.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{name: name, min: math.Inf(1), max: math.Inf(-1)}
	r.register(name+"_count", KindCounter, func() float64 {
		h.mu.Lock()
		defer h.mu.Unlock()
		return float64(h.count)
	})
	r.register(name+"_sum", KindCounter, func() float64 {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.sum
	})
	r.mu.Lock()
	r.hists = append(r.hists, h)
	r.mu.Unlock()
	return h
}

// OnAdvance makes the registry a clock observer: called after every
// virtual-time advance with the new time and the step size. It samples all
// series when the step crossed a sampling boundary, then arms the next
// boundary. The fast path (no crossing) is one nil check and one
// comparison.
func (r *Registry) OnAdvance(now, dt float64) {
	if r == nil {
		return
	}
	if now < r.next {
		return
	}
	r.sample(now)
	for r.next <= now {
		r.next += r.interval
	}
}

// Flush makes the series end with the run's final state at the given
// time. If a sample already exists at exactly that time (the last clock
// advance crossed a boundary) it is re-taken in place — state mutated
// after the advance (end-of-iteration counters) must still land in the
// final point. Runners call it once after the last iteration and then take
// the registry off the clock, so the flushed point stays the last even
// while a shared clock keeps moving for other runs.
func (r *Registry) Flush(now float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	n := len(r.times)
	if n > 0 && r.times[n-1] == now {
		for _, c := range r.cols {
			c.samples[n-1] = c.fn()
		}
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.sample(now)
	for r.next <= now {
		r.next += r.interval
	}
}

// sampleChunk sizes the initial sample-buffer allocation: paper-scale
// runs take a few hundred points per iteration, so one up-front chunk
// absorbs most of the append-growth reallocations on the sampling path.
const sampleChunk = 512

// sample appends one point to every series at virtual time now.
func (r *Registry) sample(now float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cap(r.times) == 0 {
		r.times = make([]float64, 0, sampleChunk)
	}
	r.times = append(r.times, now)
	for _, c := range r.cols {
		if cap(c.samples) == 0 {
			c.samples = make([]float64, 0, sampleChunk)
		}
		c.samples = append(c.samples, c.fn())
	}
}

// Value reads the live value of a registered series by name: the source
// closure evaluated now, not the last sample. The closure runs on the
// caller's goroutine, which must be the simulation goroutine that owns
// the sampled state. Returns (0, false) for unknown series or a nil
// registry.
func (r *Registry) Value(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	c, ok := r.byName[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	return c.fn(), true
}

// Samples returns the number of sample points taken so far.
func (r *Registry) Samples() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.times)
}

// sortedCols returns the columns in name order (export order) — callers
// must hold mu.
func (r *Registry) sortedCols() []*column {
	cols := append([]*column(nil), r.cols...)
	sort.Slice(cols, func(i, j int) bool { return cols[i].name < cols[j].name })
	return cols
}

// Counter is a registry-owned cumulative value. All methods are nil-safe.
type Counter struct {
	v float64
}

// Add accumulates d into the counter.
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	c.v += d
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current cumulative value.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram accumulates a distribution in power-of-two buckets: bucket
// exponent e counts observations v with 2^e <= v < 2^(e+1). All methods
// are nil-safe. The histogram carries its own small mutex so the HTTP
// goroutine can snapshot it while the simulation observes.
type Histogram struct {
	mu      sync.Mutex
	name    string
	count   int64
	sum     float64
	min     float64
	max     float64
	zero    int64 // observations <= 0 (kept out of the log2 buckets)
	buckets map[int]int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if v <= 0 {
		h.zero++
		return
	}
	e := int(math.Floor(math.Log2(v)))
	if h.buckets == nil {
		h.buckets = map[int]int64{}
	}
	h.buckets[e]++
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Buckets maps each power-of-two bucket's inclusive lower bound
	// (rendered with %g) to its observation count; "0" holds
	// non-positive observations.
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// snapshot copies the histogram state under its lock (exports only: the
// sampled <name>_count/<name>_sum columns read their two numbers directly).
func (h *Histogram) snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	if h.count > 0 {
		s.Min, s.Max = h.min, h.max
	}
	if h.zero > 0 || len(h.buckets) > 0 {
		s.Buckets = make(map[string]int64, len(h.buckets)+1)
		if h.zero > 0 {
			s.Buckets["0"] = h.zero
		}
		for e, n := range h.buckets {
			s.Buckets[strconv.FormatFloat(math.Ldexp(1, e), 'g', -1, 64)] = n
		}
	}
	return s
}
