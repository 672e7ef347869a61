// Package gcsim models the language garbage collector the paper's Julia
// prototype falls back on when the eager-retire memory optimization (M) is
// disabled (§IV "Memory Optimizations").
//
// Without M, the application never tells the runtime an object is dead; it
// just drops its reference. The object's heap space — and, crucially, the
// writeback obligation attached to it — survives until a collection runs.
// The paper triggers collection when memory pressure is detected and after
// every training iteration. This package reproduces exactly that: a
// deferred-death list plus a Collect that destroys everything on it and
// charges a pause to the virtual clock.
package gcsim

import (
	"cachedarrays/internal/dm"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/tracing"
)

// Stats counts collector activity.
type Stats struct {
	Collections    int64
	ObjectsFreed   int64
	BytesReclaimed int64
	PauseTime      float64
}

// Collector tracks dead-but-uncollected objects.
type Collector struct {
	m     *dm.Manager
	clock *memsim.Clock
	dead  []*dm.Object
	stats Stats

	// PauseBase and PausePerObject model the stop-the-world cost of a
	// collection. The defaults are small: the paper's point is not GC
	// pause time but the *writeback traffic* of keeping dead data alive.
	PauseBase      float64
	PausePerObject float64

	// OnDestroy, when set, is called for each object just before the
	// collector destroys it. The policy uses this to drop the object
	// from its residency tracking.
	OnDestroy func(*dm.Object)

	tracer *tracing.Recorder
}

// SetTracer attaches (or detaches, with nil) an execution-trace recorder;
// every collection then appears as a GC span, including the mid-iteration
// collections the policy triggers under memory pressure.
func (c *Collector) SetTracer(tr *tracing.Recorder) { c.tracer = tr }

// New creates a collector over the manager, charging pauses to clock.
func New(m *dm.Manager, clock *memsim.Clock) *Collector {
	return &Collector{
		m:              m,
		clock:          clock,
		PauseBase:      1e-3,
		PausePerObject: 2e-7,
	}
}

// MarkDead records that the application dropped its last reference to o.
// The object's memory is NOT freed until Collect runs — this is the
// mechanism that turns semantically-dead intermediates into NVRAM
// writebacks in the Ø and L operating modes.
func (c *Collector) MarkDead(o *dm.Object) {
	c.dead = append(c.dead, o)
}

// PendingObjects returns how many dead objects await collection.
func (c *Collector) PendingObjects() int { return len(c.dead) }

// PendingBytes returns the heap bytes held by dead objects (per primary
// region; secondaries add more underneath).
func (c *Collector) PendingBytes() int64 {
	var n int64
	for _, o := range c.dead {
		n += o.Size()
	}
	return n
}

// Collect destroys every dead object, reclaiming its regions on all tiers,
// and advances the clock by the modelled pause. It returns the bytes
// reclaimed.
func (c *Collector) Collect() int64 {
	if len(c.dead) == 0 {
		return 0
	}
	var t0 float64
	if c.clock != nil {
		t0 = c.clock.Now()
	}
	var reclaimed, freed int64
	for _, o := range c.dead {
		if o.Retired() {
			continue
		}
		reclaimed += o.Size()
		if c.OnDestroy != nil {
			c.OnDestroy(o)
		}
		c.m.DestroyObject(o)
		c.stats.ObjectsFreed++
		freed++
	}
	// float64() rounds the product: no fused multiply-add on any GOARCH.
	pause := c.PauseBase + float64(float64(len(c.dead))*c.PausePerObject)
	if c.clock != nil {
		c.clock.Advance(pause)
	}
	c.stats.PauseTime += pause
	c.stats.Collections++
	c.stats.BytesReclaimed += reclaimed
	c.dead = c.dead[:0]
	if c.tracer.Enabled() && c.clock != nil {
		c.tracer.GC(t0, c.clock.Now(), freed, reclaimed)
	}
	return reclaimed
}

// Stats returns a snapshot of collector activity.
func (c *Collector) Stats() Stats { return c.stats }
