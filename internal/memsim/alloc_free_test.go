package memsim

import (
	"testing"

	"cachedarrays/internal/metrics"
	"cachedarrays/internal/tracing"
)

// TestAdvanceHotPathAllocs pins the per-advance instrumentation cost at
// zero heap allocations: the trace recorder appends into pooled
// fixed-capacity chunks and the metrics registry samples into
// pre-grown buffers, so the simulator's hottest call — Clock.Advance
// with a tracer AND a registry attached — must not touch the allocator
// in steady state. Chunk turnover (one pooled-slab fetch per 1024
// events) and sampling-boundary appends are excluded by warming a chunk
// first and stepping well inside one sampling interval.
func TestAdvanceHotPathAllocs(t *testing.T) {
	c := &Clock{}
	rec := tracing.New(c.Now)
	reg := metrics.New(1e6) // one sample per 1e6 virtual seconds: never crossed here
	reg.Gauge("g", func() float64 { return 1 })
	c.Observe(rec)
	c.Observe(reg)

	// Warm the recorder's current chunk past its first-emit allocation.
	c.Advance(1e-9)

	const steps = 100 // stays far inside both the chunk and the interval
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			c.Advance(1e-9)
		}
	})
	if allocs != 0 {
		t.Fatalf("traced+metered Advance allocates: %.2f allocs per %d advances", allocs, steps)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("recorder captured no events (hot path not exercised)")
	}
}

// TestAdvanceHotPathAllocsUntraced: the uninstrumented advance (the
// default configuration — a clock nobody observes) must also be
// allocation-free, on a fresh clock and after an observer came and went.
func TestAdvanceHotPathAllocsUntraced(t *testing.T) {
	c := &Clock{}
	bare := func(state string) {
		if allocs := testing.AllocsPerRun(10, func() {
			for i := 0; i < 100; i++ {
				c.Advance(1e-9)
			}
		}); allocs != 0 {
			t.Fatalf("bare Advance on a %s clock allocates: %.2f allocs per 100 advances", state, allocs)
		}
	}
	bare("fresh")
	reg := metrics.New(1e6)
	c.Observe(reg)
	c.Unobserve(reg)
	bare("unobserved")
}
