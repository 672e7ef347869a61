package memsim

import (
	"reflect"
	"testing"

	"cachedarrays/internal/faults"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/tracing"
	"cachedarrays/internal/units"
)

// TestPlatformResetDetachesHooks: Platform.Reset must drop every piece of
// per-run instrumentation (a pooled platform must never leak one run's
// tracer, registry, checker or fault injector into the next run) — while
// the dropped registry keeps its samples for export. The closing DeepEqual
// against a factory-fresh platform covers the fields nobody thought to
// list: a per-run field Reset forgets fails here instead of leaking
// between pooled runs.
func TestPlatformResetDetachesHooks(t *testing.T) {
	cfg := PlatformConfig{FastCapacity: units.MB, SlowCapacity: units.MB, CopyThreads: 2}
	p := NewPlatform(cfg)
	reg := metrics.New(1e-7) // a 64 KB copy advances only microseconds of virtual time
	reg.Gauge("g", func() float64 { return 1 })
	rec := tracing.New(p.Clock.Now)
	p.Clock.Observe(reg)
	p.Clock.Observe(rec)
	p.Copier.Tracer = rec

	p.Copier.Copy(p.Slow, 0, p.Fast, 0, 64*units.KB)
	if reg.Samples() == 0 || len(rec.Events()) == 0 {
		t.Fatal("workload recorded nothing")
	}
	got := reg.Samples()

	// Attach the injector after the workload: the test only checks that
	// Reset detaches it (a zero injector cannot serve traffic).
	p.InjectFaults(&faults.Injector{})
	if p.Fast.Faults == nil || p.Slow.Faults == nil || p.Copier.Faults == nil {
		t.Fatal("InjectFaults missed a component that consults an injector")
	}

	p.Reset()
	if n := p.Clock.Observers(); n != 0 {
		t.Fatalf("Platform.Reset left %d clock observers attached", n)
	}
	if p.Copier.Tracer != nil {
		t.Fatal("Platform.Reset left the copy engine's tracer attached")
	}
	if p.Fast.Faults != nil || p.Slow.Faults != nil || p.Copier.Faults != nil {
		t.Fatal("Platform.Reset left a fault injector attached")
	}
	// The finished run's samples belong to its owner and must survive.
	if reg.Samples() != got {
		t.Fatalf("Reset touched the dropped registry: %d samples, had %d", reg.Samples(), got)
	}
	if fresh := NewPlatform(cfg); !reflect.DeepEqual(p, fresh) {
		t.Fatalf("used-then-Reset platform differs from a fresh one:\nreset %+v\nfresh %+v",
			platformState(p), platformState(fresh))
	}
}

// platformState flattens a platform's components for a failure message.
func platformState(p *Platform) []any {
	return []any{*p.Clock, *p.Fast, *p.Slow, *p.Copier, p.Compute}
}
