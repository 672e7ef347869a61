package engine

import (
	"reflect"
	"testing"

	"cachedarrays/internal/metrics"
	"cachedarrays/internal/policy"
)

// TestRunAfterInstrumentedRunsMatchesFirst is the run-isolation property
// test: after runs in every instrumented and configuration variant —
// async movement, tracing, fault injection, per-advance audits, a metrics
// registry — a plain run in the same process must still be
// reflect.DeepEqual-identical to the first one. Each run builds its own
// platform, so what this guards is process-global state (the tracer's
// chunk pool, the models' digest buffers): any of it leaking from one
// run into the next would break this.
func TestRunAfterInstrumentedRunsMatchesFirst(t *testing.T) {
	cfg := Config{Iterations: 2}
	base, err := RunCA(resnetLarge, policy.CALM, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dirty := []Config{
		{Iterations: 2, AsyncMovement: true},
		{Iterations: 2, Trace: true},
		{Iterations: 2, TraceEvents: 16},
		{Iterations: 2, FaultSpec: "seed=42;allocfail:fast:t0=0.1,t1=0.5,p=0.5;copystall:nvram:t0=0,stall=2ms"},
		{Iterations: 2, CheckInvariants: true},
	}
	for _, d := range dirty {
		if _, err := RunCA(resnetLarge, policy.CALM, d); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.New(0.5)
	if _, err := RunCA(resnetLarge, policy.CALM, Config{Iterations: 2, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if reg.Samples() == 0 {
		t.Fatal("metered dirty run recorded no samples")
	}

	again, err := RunCA(resnetLarge, policy.CALM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, again) {
		t.Fatal("plain run after instrumented runs differs from the first run")
	}
	// And the reverse hazard: a sync run between two async runs must not
	// perturb the async timings.
	acfg := Config{Iterations: 2, AsyncMovement: true}
	async1, err := RunCA(resnetLarge, policy.CALM, acfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCA(resnetLarge, policy.CALM, cfg); err != nil {
		t.Fatal(err)
	}
	async2, err := RunCA(resnetLarge, policy.CALM, acfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(async1, async2) {
		t.Fatal("async run after a sync run differs from the first async run")
	}
}
