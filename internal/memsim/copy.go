package memsim

import (
	"fmt"

	"cachedarrays/internal/faults"
	"cachedarrays/internal/tracing"
)

// CopyEngine is the data-movement mechanism of the data manager: a
// multi-threaded memcpy between (or within) devices that always uses
// well-shaped sequential streams and non-temporal stores on the
// destination. The paper's copy kernel "uses non-temporal stores to NVRAM,
// which are crucial for best performance" (§V-d), and its bandwidth
// *decreases* with excess parallelism when the destination is NVRAM.
type CopyEngine struct {
	Clock *Clock
	// Threads is the maximum number of copy threads. The effective thread
	// count for a transfer is min(Threads, ceil(n/ChunkBytes)) — small
	// transfers cannot use the full pool, which is why the paper's
	// small-batch VGG sees lower bus utilization than ResNet (Fig. 6).
	Threads int
	// ChunkBytes is the per-thread parallelization grain.
	ChunkBytes int64
	// LaunchOverhead is the fixed per-copy cost in seconds (thread
	// wake-up, argument marshalling). It penalizes many small copies.
	LaunchOverhead float64
	// WriteThreadCap, when positive, bounds the threads used for the
	// write side of a copy. NVRAM write bandwidth collapses beyond a
	// small number of concurrent streams (§V-d); a scheduler that is
	// free to pace its transfers (the asynchronous mover) caps its
	// writeback streams at the device's optimum instead of using the
	// whole pool.
	WriteThreadCap int
	// Async switches the engine from the paper's evaluated configuration
	// (synchronous movement: the caller stalls for the copy's duration)
	// to the separate-thread-pool design §V-c sketches as future work:
	// copies are queued on the mover's own timeline and the caller
	// continues immediately. Consumers of moved data must wait until
	// BusyUntil (the engine's executors do this per data dependency).
	Async bool

	// Tracer, when non-nil, records every transfer (with its stream
	// shapes and the mover's queue state) into the execution trace.
	Tracer *tracing.Recorder

	// Faults, when non-nil, lets copy-stall episodes add transient delay
	// to transfers (a device hiccuping without erroring). Nil costs one
	// branch per copy.
	Faults *faults.Injector

	// busyUntil is the virtual time at which the asynchronous mover
	// finishes its queued work.
	busyUntil float64
	// queued counts transfers enqueued since the asynchronous mover was
	// last idle — the queue depth the tracer reports.
	queued int
}

// BusyUntil returns the time the asynchronous mover drains its queue; for
// a synchronous engine it is simply "now".
func (e *CopyEngine) BusyUntil() float64 {
	if !e.Async {
		return e.Clock.Now()
	}
	if e.busyUntil < e.Clock.Now() {
		return e.Clock.Now()
	}
	return e.busyUntil
}

// QueueDepth returns the number of transfers the asynchronous mover has
// queued since it was last idle, or zero when the mover is idle (or the
// engine is synchronous). It is an instantaneous gauge for metrics.
func (e *CopyEngine) QueueDepth() int {
	if !e.Async || e.busyUntil <= e.Clock.Now() {
		return 0
	}
	return e.queued
}

// Backlog returns the virtual seconds of queued work ahead of the
// asynchronous mover: BusyUntil minus now, zero when idle or synchronous.
func (e *CopyEngine) Backlog() float64 {
	return e.BusyUntil() - e.Clock.Now()
}

// NewCopyEngine returns an engine with the given thread pool over the
// clock, using a 4 MiB grain and a 5 µs launch overhead.
func NewCopyEngine(clock *Clock, threads int) *CopyEngine {
	if threads <= 0 {
		threads = 1
	}
	return &CopyEngine{
		Clock:          clock,
		Threads:        threads,
		ChunkBytes:     4 << 20,
		LaunchOverhead: 5e-6,
	}
}

// effectiveThreads returns the thread count usable for an n-byte transfer.
func (e *CopyEngine) effectiveThreads(n int64) int {
	if e.ChunkBytes <= 0 {
		return e.Threads
	}
	chunks := (n + e.ChunkBytes - 1) / e.ChunkBytes
	if chunks < 1 {
		chunks = 1
	}
	if int64(e.Threads) < chunks {
		return e.Threads
	}
	return int(chunks)
}

// writeAccess returns the access shape of a copy's write stream, applying
// the write-thread cap.
func (e *CopyEngine) writeAccess(threads int) Access {
	if e.WriteThreadCap > 0 && threads > e.WriteThreadCap {
		threads = e.WriteThreadCap
	}
	return Sequential(threads)
}

// CopyTime returns the modelled duration of an n-byte copy from src to dst
// without performing it (no counter updates, no clock advance). The copy is
// pipelined: its duration is the max of the read and write streams.
func (e *CopyEngine) CopyTime(dst, src *Device, n int64) float64 {
	if n <= 0 {
		return 0
	}
	threads := e.effectiveThreads(n)
	rt := src.ReadTime(n, Sequential(threads))
	wt := dst.WriteTime(n, e.writeAccess(threads))
	t := rt
	if wt > t {
		t = wt
	}
	return t + e.LaunchOverhead
}

// Copy moves n bytes from src[srcOff:] to dst[dstOff:]. It records traffic
// on both devices, advances the virtual clock, and — when both devices are
// backed — really copies the bytes. It returns the elapsed virtual time.
//
// Copying with overlapping ranges on the same device is allowed and behaves
// like Go's copy (memmove).
func (e *CopyEngine) Copy(dst *Device, dstOff int64, src *Device, srcOff int64, n int64) float64 {
	if n < 0 {
		panic(fmt.Sprintf("memsim: negative copy length %d", n))
	}
	if n == 0 {
		return 0
	}
	if dstOff < 0 || dstOff+n > dst.Capacity {
		panic(fmt.Sprintf("memsim: copy dst range [%d,%d) out of bounds on %s",
			dstOff, dstOff+n, dst.Name))
	}
	if srcOff < 0 || srcOff+n > src.Capacity {
		panic(fmt.Sprintf("memsim: copy src range [%d,%d) out of bounds on %s",
			srcOff, srcOff+n, src.Name))
	}
	threads := e.effectiveThreads(n)
	rt := src.Read(n, Sequential(threads))
	wt := dst.Write(n, e.writeAccess(threads))
	t := rt
	if wt > t {
		t = wt
	}
	t += e.LaunchOverhead
	if e.Faults != nil {
		t += e.Faults.CopyStall(dst.Name)
	}
	if e.Async {
		// Queue on the mover timeline; the application thread does
		// not stall. The region state machine updates immediately
		// (the object's primary is already reassigned by the caller);
		// only the *timing* of the bytes' arrival is deferred, and
		// consumers synchronize through BusyUntil.
		start := e.Clock.Now()
		if e.busyUntil > start {
			start = e.busyUntil
			e.queued++
		} else {
			e.queued = 1
		}
		e.busyUntil = start + t
		if e.Tracer.Enabled() {
			e.Tracer.Xfer(src.Name, dst.Name, n, start, e.busyUntil,
				threads, e.writeAccess(threads).Threads, e.queued, e.busyUntil-e.Clock.Now())
		}
	} else if e.Clock != nil {
		e.Clock.Advance(t)
		if e.Tracer.Enabled() {
			now := e.Clock.Now()
			e.Tracer.Xfer(src.Name, dst.Name, n, now-t, now,
				threads, e.writeAccess(threads).Threads, 0, 0)
		}
	}
	if dst.Backed() && src.Backed() {
		copy(dst.Data(dstOff, n), src.Data(srcOff, n))
	}
	return t
}
