// Package memsim models a heterogeneous memory platform in virtual time.
//
// It is the hardware substitution layer for the CachedArrays reproduction:
// the paper evaluates on a real Cascade Lake machine with DRAM and Optane
// NVRAM; we model the devices' capacity and bandwidth characteristics and a
// multi-threaded copy engine, and account traffic the same way the paper's
// hardware performance counters do. All timing is virtual — the clock only
// advances when the simulation models compute or data movement — so
// terabyte-scale experiments run in milliseconds of host time.
package memsim

import (
	"fmt"
	"slices"
)

// Observer is told every time virtual time moves: now is the clock after
// the advance, dt the step. The execution tracer, the metrics registry and
// the invariant checker are the three observers; an observer must not
// advance the clock it watches.
type Observer interface {
	OnAdvance(now, dt float64)
}

// Clock is a virtual-time clock measured in seconds. The zero value is a
// clock at time zero with no observers, ready to use.
type Clock struct {
	now float64
	// observers fire after every advance, in attachment order. Unobserve
	// replaces the slice instead of editing it, so an Advance in progress
	// keeps ranging over the list it started with.
	observers []Observer
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Observe appends o to the observer list: from the next advance on it
// fires after every observer attached before it. Any number of observers
// of any type share a clock; one attached twice fires twice. Called from
// inside OnAdvance it takes effect at the next advance.
func (c *Clock) Observe(o Observer) { c.observers = append(c.observers, o) }

// Unobserve removes o (its earliest attachment) from the list, keeping the
// others' order; an observer that is not attached is a no-op. Called from
// inside OnAdvance it takes effect at the next advance: the advance in
// progress still reaches every observer it started with.
func (c *Clock) Unobserve(o Observer) {
	if i := slices.Index(c.observers, o); i >= 0 {
		c.observers = slices.Delete(slices.Clone(c.observers), i, i+1)
	}
}

// Observers returns how many observers are attached.
func (c *Clock) Observers() int { return len(c.observers) }

// Advance moves the clock forward by dt seconds and tells every observer.
// It panics on negative dt: virtual time is monotone and a negative advance
// always indicates a bug in the timing model. A clock nobody observes pays
// one empty loop.
func (c *Clock) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("memsim: negative clock advance %g", dt))
	}
	c.now += dt
	for _, o := range c.observers {
		o.OnAdvance(c.now, dt)
	}
}
