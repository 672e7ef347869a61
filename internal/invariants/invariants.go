// Package invariants audits the simulated runtime's global consistency
// while it runs. The data manager and the policy each validate their own
// bookkeeping (dm.Manager.CheckInvariants, policy.Tiered.CheckInvariants);
// this package composes those with platform-level conservation laws and
// runs the whole audit as an observer of the virtual clock, so every point
// at which simulated time moves is a checkpoint:
//
//   - virtual time is monotone and finite;
//   - heap bytes are conserved per tier (used + free == capacity) and
//     occupancy never exceeds the device;
//   - device traffic counters are finite and never run backwards;
//   - the object/region state machine is legal (every allocator block has
//     exactly one region, regions point back at their objects, sizes
//     match — delegated to the manager's own checker);
//   - at quiesce points, additionally: no leaked regions (every region is
//     bound to a live object) and the policy's residency accounting is
//     exact.
//
// The checker is the oracle for the fuzz targets and backs `carun -check`;
// it is a clock observer (memsim.Observer) like the tracer and the metrics
// registry, any number of checkers share a clock, and none is attached
// unless asked for, so ordinary runs are untouched.
package invariants

import (
	"fmt"
	"math"

	"cachedarrays/internal/dm"
	"cachedarrays/internal/memsim"
)

// Policy is the optional policy-level audit the checker runs at quiesce
// points (policy.Tiered satisfies it). Policy checks cannot run at
// arbitrary clock advances: mid-operation, a freshly allocated region is
// legitimately unbound while its bytes are in flight.
type Policy interface {
	CheckInvariants() error
}

// Checker audits a manager + platform pair. The zero value is not usable;
// construct with New.
type Checker struct {
	m   *dm.Manager
	p   *memsim.Platform
	pol Policy

	lastNow  float64
	lastFast memsim.Counters
	lastSlow memsim.Counters

	checks   int64
	firstErr error
	errAt    float64
}

// New builds a checker over a manager and the platform it manages.
func New(m *dm.Manager, p *memsim.Platform) *Checker {
	return &Checker{m: m, p: p, lastNow: p.Clock.Now()}
}

// WithPolicy adds the policy-level audit to quiesce-point checks and
// returns the checker for chaining.
func (c *Checker) WithPolicy(pol Policy) *Checker {
	c.pol = pol
	return c
}

// Checks returns how many audits have run.
func (c *Checker) Checks() int64 { return c.checks }

// Err returns the first violation found, annotated with the virtual time
// at which it was caught, or nil.
func (c *Checker) Err() error {
	if c.firstErr == nil {
		return nil
	}
	return fmt.Errorf("invariants: at t=%.9fs: %w", c.errAt, c.firstErr)
}

// OnAdvance makes the checker a clock observer (Clock.Observe attaches it,
// Clock.Unobserve detaches it): the mid-operation
// audit, skipped while the manager is relocating regions (Defrag holds the
// allocator and the region index transiently out of sync; the next advance
// catches up). It records the first violation (with its virtual timestamp,
// via Err) rather than panicking, so the simulation finishes and the caller
// reports the failure with full context; after that the checker stands
// down — one failure is diagnostic, thousands are noise.
func (c *Checker) OnAdvance(now, dt float64) {
	if c.firstErr != nil {
		return
	}
	if dt < 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		c.fail(now, fmt.Errorf("clock advanced by illegal step %g", dt))
		return
	}
	if !c.m.Quiesced() {
		c.lastNow = now
		return
	}
	if err := c.Check(); err != nil {
		c.fail(now, err)
	}
}

func (c *Checker) fail(now float64, err error) {
	c.firstErr = err
	c.errAt = now
}

// Check runs the mid-operation audit now: platform conservation laws plus
// the manager's full state-machine check. Safe at any clock advance — it
// tolerates transiently unbound regions (data in flight during a prefetch
// or eviction copy).
func (c *Checker) Check() error {
	c.checks++
	now := c.p.Clock.Now()
	if math.IsNaN(now) || math.IsInf(now, 0) {
		return fmt.Errorf("invariants: clock is %g", now)
	}
	if now < c.lastNow {
		return fmt.Errorf("invariants: clock ran backwards: %g after %g", now, c.lastNow)
	}
	c.lastNow = now
	devices := [dm.NumClasses]*memsim.Device{c.p.Fast, c.p.Slow}
	for cls := dm.Class(0); cls < dm.NumClasses; cls++ {
		a := c.m.AllocatorFor(cls)
		used, free, capacity := a.Used(), a.FreeBytes(), a.Capacity()
		if used < 0 || free < 0 {
			return fmt.Errorf("invariants: %v heap accounting negative (used %d, free %d)", cls, used, free)
		}
		if used+free != capacity {
			return fmt.Errorf("invariants: %v heap bytes not conserved: used %d + free %d != capacity %d",
				cls, used, free, capacity)
		}
		if capacity > devices[cls].Capacity {
			return fmt.Errorf("invariants: %v allocator capacity %d exceeds device capacity %d",
				cls, capacity, devices[cls].Capacity)
		}
	}
	if err := c.checkCounters(c.p.Fast, &c.lastFast); err != nil {
		return err
	}
	if err := c.checkCounters(c.p.Slow, &c.lastSlow); err != nil {
		return err
	}
	return c.m.CheckInvariants()
}

// checkCounters validates one device's traffic counters: finite,
// non-negative, and never decreasing between audits.
func (c *Checker) checkCounters(d *memsim.Device, last *memsim.Counters) error {
	cur := d.Counters()
	if cur.ReadBytes < 0 || cur.WriteBytes < 0 || cur.ReadOps < 0 || cur.WriteOps < 0 {
		return fmt.Errorf("invariants: %s counters negative: %+v", d.Name, cur)
	}
	if math.IsNaN(cur.BusyTime) || math.IsInf(cur.BusyTime, 0) || cur.BusyTime < 0 {
		return fmt.Errorf("invariants: %s busy time is %g", d.Name, cur.BusyTime)
	}
	if cur.ReadBytes < last.ReadBytes || cur.WriteBytes < last.WriteBytes ||
		cur.ReadOps < last.ReadOps || cur.WriteOps < last.WriteOps {
		return fmt.Errorf("invariants: %s counters ran backwards: %+v after %+v", d.Name, cur, *last)
	}
	*last = cur
	return nil
}

// CheckQuiesced runs the full audit at a quiesce point (between hints or
// iterations, when no operation is mid-flight): everything Check does,
// plus no-leaked-regions — every allocated block's region must be bound
// to a live object — and the policy's own invariants when one is attached.
func (c *Checker) CheckQuiesced() error {
	if err := c.Check(); err != nil {
		return err
	}
	for cls := dm.Class(0); cls < dm.NumClasses; cls++ {
		var leakErr error
		c.m.AllocatorFor(cls).Blocks(func(off, size int64) bool {
			r := c.m.RegionAt(cls, off)
			if r == nil {
				leakErr = fmt.Errorf("invariants: %v block at %d has no region", cls, off)
				return false
			}
			o := c.m.Parent(r)
			if o == nil {
				leakErr = fmt.Errorf("invariants: leaked %v region at %d (%d bytes, unbound at quiesce)",
					cls, off, size)
				return false
			}
			if o.Retired() {
				leakErr = fmt.Errorf("invariants: %v region at %d bound to retired object %d",
					cls, off, o.ID())
				return false
			}
			return true
		})
		if leakErr != nil {
			return leakErr
		}
	}
	if c.pol != nil {
		return c.pol.CheckInvariants()
	}
	return nil
}
