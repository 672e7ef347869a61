// Package tracing is the execution-trace recorder for the simulator: a
// low-overhead structured event log that decomposes a run into the same
// quantities the paper's figures report — compute vs. movement stall per
// kernel (Fig. 2/7), per-device traffic (Fig. 5/6) and per-object movement
// (Fig. 3's resident heap is the integral of it).
//
// The recorder is threaded through every layer that produces time or
// traffic:
//
//   - memsim: virtual-clock advances, copy-engine transfers (with their
//     read/write stream shapes) and the asynchronous mover's queue depth;
//   - dm: allocate/free/copy/link/unlink/setprimary/destroy with the
//     owning object's ID;
//   - policy: every decision (evict, prefetch, forced eviction, eager and
//     deferred retire, GC trigger, defrag) with the hint that triggered it;
//   - engine: kernel start/stop with the compute-vs-stall split, iteration
//     boundaries, and the binding from object IDs to tensor names.
//
// A nil *Recorder is valid and records nothing: every method nil-checks its
// receiver, so instrumented hot paths pay one predictable branch when
// tracing is off. The package imports only the standard library — memsim,
// dm, policy and engine all import it, never the reverse.
//
// The trace is a *decomposition* of the published aggregates, not a second
// bookkeeping system: the run embeds its final dm/memsim counters in a
// trailing "totals" event and Verify checks the event sums reproduce them
// exactly (integer byte counts bit-exact, stall seconds summed in the same
// order the engine summed them, so float equality is exact too).
package tracing

import "sync"

// Kind labels one trace event.
type Kind string

// Event kinds. The string values are the wire format of the JSONL export.
const (
	// KindClock: the virtual clock advanced by Dur seconds (T0 is the
	// time after the advance).
	KindClock Kind = "clock"
	// KindXfer: one copy-engine transfer. From/To are device names,
	// RThreads/WThreads the stream shapes (the write side may be capped
	// at the destination's optimal parallelism), Depth/Backlog the
	// asynchronous mover's queue state at enqueue (zero for synchronous
	// engines).
	KindXfer Kind = "xfer"
	// KindCopy: a data-manager object copy (dm.CopyTo). From/To are
	// tiers, Obj the owning object, Cause the triggering hint.
	KindCopy Kind = "copy"
	// KindAlloc / KindFree: region lifecycle, Obj the owner (0 unbound).
	KindAlloc Kind = "alloc"
	KindFree  Kind = "free"
	// KindLink / KindUnlink: region association changes.
	KindLink   Kind = "link"
	KindUnlink Kind = "unlink"
	// KindSetPrimary: an object's primary moved between tiers.
	KindSetPrimary Kind = "setprimary"
	// KindDestroy: an object was destroyed.
	KindDestroy Kind = "destroy"
	// KindDefrag: compaction relocated a region within a tier.
	KindDefrag Kind = "defrag"
	// KindDecision: one policy decision; Op names it (evict,
	// evict-forced, prefetch, prefetch-forced, eager-retire,
	// deferred-retire, elide-writeback, gc-trigger, defrag), Cause the
	// hint that triggered it.
	KindDecision Kind = "decision"
	// KindKernel: one kernel execution span; Compute is the roofline's
	// pure-compute component, so T1-T0-Compute is the kernel's internal
	// memory-bound time.
	KindKernel Kind = "kernel"
	// KindKernelIO: one kernel's traffic on one device (From); RBytes
	// read, WBytes written.
	KindKernelIO Kind = "kio"
	// KindStall: a movement stall charged to the application thread.
	// Op is the stall site: "hint" (synchronous movement during the
	// pre-kernel hint window), "wait" (async data dependency, Obj the
	// blocking object) or "drain" (end-of-iteration mover drain). Dur
	// is the exact float the engine added to its MoveTime accounting.
	KindStall Kind = "stall"
	// KindBind: object Obj is tensor Op (the engine's name for it).
	KindBind Kind = "bind"
	// KindGC: one garbage-collection pause.
	KindGC Kind = "gc"
	// KindIter: one training-iteration span.
	KindIter Kind = "iter"
	// KindFault: the fault injector fired. Op names the fault
	// (alloc-fail, copy-error, copy-stall, bw-collapse, cap-shrink),
	// Bytes the affected size and Dur any injected stall; continuous
	// faults (bw-collapse, cap-shrink) announce once per episode.
	// KindRetry: a victim's bounded retry/backoff step in virtual time;
	// Op is the retried operation (alloc-retry, copy-retry), Dur the
	// backoff it waited.
	KindFault Kind = "fault"
	KindRetry Kind = "retry"
	// KindTotals: the trailing aggregate record Verify checks against.
	KindTotals Kind = "totals"
	// KindCluster: the trailing cluster record of a multi-tenant trace:
	// per-tenant outcomes (spans, fairness, attributed device traffic) and
	// the whole-platform device counters VerifyLanes checks the per-lane
	// attribution against.
	KindCluster Kind = "cluster"
)

// Event is one trace record. It is a flat union: each Kind uses the fields
// documented on its constant and leaves the rest zero (omitted in JSON).
type Event struct {
	Kind Kind    `json:"kind"`
	T0   float64 `json:"t0"`
	T1   float64 `json:"t1,omitempty"`
	// Dur is the event's duration where exactness matters (stalls use
	// the engine's own float, not T1-T0).
	Dur float64 `json:"dur,omitempty"`
	// Iter / Kernel / KName are the recorder's context when the event
	// fired: training iteration, kernel index (-1 outside kernels) and
	// kernel name.
	Iter   int    `json:"iter"`
	Kernel int    `json:"kernel"`
	KName  string `json:"kname,omitempty"`
	// Tenant labels the event's trace lane in a multi-tenant cluster run:
	// the tenant that was dispatched when the event fired. Empty in solo
	// traces (and on the trailing cluster record, which is cluster-owned).
	Tenant string `json:"tenant,omitempty"`
	Obj    uint64 `json:"obj,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	RBytes int64  `json:"rbytes,omitempty"`
	WBytes int64  `json:"wbytes,omitempty"`
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	// Op is the decision/stall/bind payload; Cause the triggering hint.
	Op    string `json:"op,omitempty"`
	Cause string `json:"cause,omitempty"`
	// RThreads/WThreads are a transfer's stream shapes.
	RThreads int `json:"rthreads,omitempty"`
	WThreads int `json:"wthreads,omitempty"`
	// Depth/Backlog are the async mover's queue state: transfers queued
	// since the mover was last idle, and seconds of queued work ahead.
	Depth   int     `json:"depth,omitempty"`
	Backlog float64 `json:"backlog,omitempty"`
	// Compute is a kernel's pure-compute roofline component.
	Compute float64 `json:"compute,omitempty"`
	// Totals is only set on the trailing KindTotals event.
	Totals *Totals `json:"totals,omitempty"`
	// Cluster is only set on the trailing KindCluster event of a
	// multi-tenant trace.
	Cluster *ClusterTotals `json:"cluster,omitempty"`
}

// Totals is the run's authoritative aggregate record, filled by the engine
// from dm.Stats, the device counters and the per-iteration metrics — the
// numbers the paper's figures are built from. Verify recomputes each from
// the event stream and requires exact equality.
type Totals struct {
	// From dm.Stats.
	Copies          int64 `json:"copies"`
	BytesFastToSlow int64 `json:"bytes_fast_to_slow"`
	BytesSlowToFast int64 `json:"bytes_slow_to_fast"`
	BytesWithinFast int64 `json:"bytes_within_fast"`
	BytesWithinSlow int64 `json:"bytes_within_slow"`
	DefragMoves     int64 `json:"defrag_moves"`
	// From memsim.Counters (whole-run, both devices). FastDevice and
	// SlowDevice name the devices so Verify can assign xfer/kio traffic
	// to tiers.
	FastDevice     string `json:"fast_device"`
	SlowDevice     string `json:"slow_device"`
	FastReadBytes  int64  `json:"fast_read_bytes"`
	FastWriteBytes int64  `json:"fast_write_bytes"`
	SlowReadBytes  int64  `json:"slow_read_bytes"`
	SlowWriteBytes int64  `json:"slow_write_bytes"`
	// MoveTimeByIter is each iteration's movement-stall seconds exactly
	// as the engine accumulated them.
	MoveTimeByIter []float64 `json:"move_time_by_iter"`
	// Async records whether the run used the asynchronous mover (it
	// changes how stalls attribute: waits instead of copy durations).
	Async bool `json:"async,omitempty"`
}

// TenantTotals is one tenant's authoritative outcome inside a cluster
// record: its dispatch span, fairness metrics, and the device traffic the
// dispatcher attributed to its windows. VerifyLanes cross-checks the
// attributed byte counters against the tenant's own lane Totals, and the
// sum over tenants against the cluster's whole-platform counters.
type TenantTotals struct {
	Name    string  `json:"name"`
	Mode    string  `json:"mode"`
	Arrival float64 `json:"arrival"`
	Start   float64 `json:"start"`
	Finish  float64 `json:"finish"`
	Busy    float64 `json:"busy"`
	Wait    float64 `json:"wait"`
	Steps   int     `json:"steps"`
	// Fairness metrics (zero when the cluster ran without baselines).
	SoloTime         float64 `json:"solo_time,omitempty"`
	Slowdown         float64 `json:"slowdown,omitempty"`
	InducedEvictions int64   `json:"induced_evictions"`
	// Device traffic attributed to this tenant's dispatch windows
	// (counter deltas measured around every Step/setup the dispatcher ran
	// for it — one tenant runs at a time, so the deltas are exact).
	FastReadBytes  int64 `json:"fast_read_bytes"`
	FastWriteBytes int64 `json:"fast_write_bytes"`
	SlowReadBytes  int64 `json:"slow_read_bytes"`
	SlowWriteBytes int64 `json:"slow_write_bytes"`
}

// ClusterTotals is the trailing record of a multi-tenant trace: every
// tenant's outcome plus the whole-platform device counters the per-tenant
// attribution must sum to exactly.
type ClusterTotals struct {
	Tenants []TenantTotals `json:"tenants"`
	// Whole-platform device counters at the end of the run.
	FastDevice     string  `json:"fast_device"`
	SlowDevice     string  `json:"slow_device"`
	FastReadBytes  int64   `json:"fast_read_bytes"`
	FastWriteBytes int64   `json:"fast_write_bytes"`
	SlowReadBytes  int64   `json:"slow_read_bytes"`
	SlowWriteBytes int64   `json:"slow_write_bytes"`
	Makespan       float64 `json:"makespan"`
	Dispatches     int     `json:"dispatches"`
}

// eventChunkSize is the fixed capacity of one pooled event chunk. Events
// accumulate into fixed-size chunks taken from a package-level pool, so
// the emit hot path never triggers an append-growth copy of the whole
// event log: steady-state recording is allocation-free (chunks recycle
// through the pool) and a chunk grab happens once per chunkSize events.
const eventChunkSize = 1024

// chunkPool recycles event chunks across recorders. Chunks are cleared
// before being returned so recycled storage retains no string or *Totals
// references from earlier runs.
var chunkPool sync.Pool

func takeChunk() []Event {
	if p, ok := chunkPool.Get().(*[]Event); ok && p != nil {
		return (*p)[:0]
	}
	return make([]Event, 0, eventChunkSize)
}

func putChunk(c []Event) {
	if cap(c) != eventChunkSize {
		return
	}
	clear(c)
	c = c[:0]
	chunkPool.Put(&c)
}

// Recorder accumulates events for one run. It is single-goroutine, like
// the simulation itself; concurrent runs each get their own recorder.
// A nil *Recorder is a valid, disabled recorder.
type Recorder struct {
	now func() float64
	// full holds completed chunks, cur the chunk being filled and flat
	// the events already flattened by a previous Events() call.
	full [][]Event
	cur  []Event
	flat []Event

	iter   int
	kernel int
	kname  string
	hint   string
	tenant string
}

// New creates a recorder stamping events with the given virtual-time
// source (typically memsim's Clock.Now).
func New(now func() float64) *Recorder {
	return &Recorder{now: now, iter: -1, kernel: -1}
}

// Enabled reports whether events are being recorded (nil-safe).
func (r *Recorder) Enabled() bool { return r != nil }

// Events returns the recorded events, flattening the pooled chunks into
// one contiguous slice (the chunks go back to the pool). It returns nil
// when nothing was recorded. Calling it again returns the same flattened
// slice plus anything emitted since.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	n := len(r.flat)
	for _, c := range r.full {
		n += len(c)
	}
	n += len(r.cur)
	if n == 0 {
		return nil
	}
	if len(r.full) == 0 && len(r.cur) == 0 {
		return r.flat
	}
	flat := make([]Event, 0, n)
	flat = append(flat, r.flat...)
	for _, c := range r.full {
		flat = append(flat, c...)
		putChunk(c)
	}
	if r.cur != nil {
		flat = append(flat, r.cur...)
		putChunk(r.cur)
	}
	r.full, r.cur = nil, nil
	r.flat = flat
	return flat
}

// emit appends e, stamping the recorder context and, when T0 is unset, the
// current virtual time. The append target is a fixed-capacity pooled
// chunk, so the steady-state cost is one bounds check and a struct copy —
// never a grow-and-copy of the whole log.
func (r *Recorder) emit(e Event) {
	e.Iter, e.Kernel, e.KName = r.iter, r.kernel, r.kname
	e.Tenant = r.tenant
	if e.T0 == 0 && e.T1 == 0 && r.now != nil {
		e.T0 = r.now()
	}
	if len(r.cur) == cap(r.cur) {
		if r.cur != nil {
			r.full = append(r.full, r.cur)
		}
		r.cur = takeChunk()
	}
	r.cur = append(r.cur, e)
}

// ---------------------------------------------------------------------------
// Context (set by the engine and policy; stamped onto every event).

// BeginIter marks the start of a training iteration.
func (r *Recorder) BeginIter(i int) {
	if r == nil {
		return
	}
	r.iter = i
}

// BeginKernel sets the kernel context for subsequent events.
func (r *Recorder) BeginKernel(ki int, name string) {
	if r == nil {
		return
	}
	r.kernel, r.kname = ki, name
}

// EndKernel clears the kernel context.
func (r *Recorder) EndKernel() {
	if r == nil {
		return
	}
	r.kernel, r.kname = -1, ""
}

// SetHint records the semantic hint currently being serviced; data-manager
// and policy events fired while it is set carry it as their Cause.
func (r *Recorder) SetHint(h string) {
	if r == nil {
		return
	}
	r.hint = h
}

// Hint returns the hint context ("" when none).
func (r *Recorder) Hint() string {
	if r == nil {
		return ""
	}
	return r.hint
}

// ---------------------------------------------------------------------------
// Emitters (each nil-safe; one call site per instrumented action).

// OnAdvance records a virtual-clock advance (the recorder is a clock
// observer): now is the time after the advance, dt its size.
func (r *Recorder) OnAdvance(now, dt float64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindClock, T0: now, Dur: dt})
}

// Xfer records one copy-engine transfer between devices.
func (r *Recorder) Xfer(from, to string, bytes int64, t0, t1 float64, rthreads, wthreads, depth int, backlog float64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindXfer, T0: t0, T1: t1, Dur: t1 - t0, From: from, To: to,
		Bytes: bytes, RThreads: rthreads, WThreads: wthreads, Depth: depth, Backlog: backlog})
}

// Copy records a data-manager object copy.
func (r *Recorder) Copy(obj uint64, bytes int64, from, to string, t0, t1 float64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindCopy, T0: t0, T1: t1, Dur: t1 - t0, Obj: obj,
		Bytes: bytes, From: from, To: to, Cause: r.hint})
}

// DM records a region/object lifecycle event (alloc, free, link, unlink,
// setprimary, destroy, defrag).
func (r *Recorder) DM(kind Kind, obj uint64, bytes int64, from, to string) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: kind, Obj: obj, Bytes: bytes, From: from, To: to, Cause: r.hint})
}

// Decision records one policy decision with its triggering hint.
func (r *Recorder) Decision(op string, obj uint64, bytes int64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindDecision, Op: op, Obj: obj, Bytes: bytes, Cause: r.hint})
}

// Kernel records a kernel execution span; compute is the roofline's
// pure-compute component.
func (r *Recorder) Kernel(t0, t1, compute float64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindKernel, T0: t0, T1: t1, Dur: t1 - t0, Compute: compute})
}

// KernelIO records one kernel's traffic on one device.
func (r *Recorder) KernelIO(device string, rbytes, wbytes int64) {
	if r == nil || (rbytes == 0 && wbytes == 0) {
		return
	}
	r.emit(Event{Kind: KindKernelIO, From: device, RBytes: rbytes, WBytes: wbytes})
}

// Stall records a movement stall. dur must be the exact float the engine
// adds to its MoveTime accounting — Verify re-sums these in order.
func (r *Recorder) Stall(op string, obj uint64, dur float64) {
	if r == nil {
		return
	}
	t1 := 0.0
	if r.now != nil {
		t1 = r.now()
	}
	r.emit(Event{Kind: KindStall, T0: t1 - dur, T1: t1, Dur: dur, Op: op, Obj: obj})
}

// Bind records that object obj holds the named tensor.
func (r *Recorder) Bind(obj uint64, name string, bytes int64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindBind, Obj: obj, Op: name, Bytes: bytes})
}

// Fault records one fault-injector firing (with the hint being serviced as
// its cause, so the fault is attributable to the decision it perturbed).
func (r *Recorder) Fault(op string, bytes int64, dur float64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindFault, Op: op, Bytes: bytes, Dur: dur, Cause: r.hint})
}

// Retry records one bounded retry/backoff step a victim took in response
// to an injected fault.
func (r *Recorder) Retry(op string, obj uint64, backoff float64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindRetry, Op: op, Obj: obj, Dur: backoff, Cause: r.hint})
}

// GC records a collection pause.
func (r *Recorder) GC(t0, t1 float64, objects int64, reclaimed int64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindGC, T0: t0, T1: t1, Dur: t1 - t0, Obj: uint64(objects), Bytes: reclaimed})
}

// Iter records a completed iteration span.
func (r *Recorder) Iter(i int, t0, t1 float64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindIter, T0: t0, T1: t1, Dur: t1 - t0, Op: "iteration"})
}

// EmitTotals appends the trailing aggregate record.
func (r *Recorder) EmitTotals(t Totals) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindTotals, Totals: &t})
}
