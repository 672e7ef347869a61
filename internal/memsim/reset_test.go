package memsim

import (
	"math/rand"
	"reflect"
	"testing"

	"cachedarrays/internal/units"
)

// TestCopyEngineResetAfterPlatformReset is the regression test for the
// stale-mover bug: busyUntil survived Clock.Reset, so the first copy of a
// platform's second run queued behind the previous run's drained work and
// the mover appeared busy at virtual time zero.
func TestCopyEngineResetAfterPlatformReset(t *testing.T) {
	p := NewPlatform(PlatformConfig{
		FastCapacity: units.MB, SlowCapacity: units.MB, CopyThreads: 4,
	})
	p.Copier.Async = true

	// First run: queue work on the mover, leave it busy.
	p.Copier.Copy(p.Slow, 0, p.Fast, 0, 256*units.KB)
	if p.Copier.BusyUntil() <= 0 {
		t.Fatal("async copy did not occupy the mover")
	}

	p.Reset()
	if got := p.Copier.BusyUntil(); got != 0 {
		t.Fatalf("after Platform.Reset the mover is still busy until %v", got)
	}

	// Second run: the first copy must start at time zero, exactly like
	// on a fresh engine.
	el := p.Copier.Copy(p.Slow, 0, p.Fast, 0, 256*units.KB)
	if got, want := p.Copier.BusyUntil(), el; got != want {
		t.Fatalf("first copy after reset finishes at %v, want %v (queued behind stale work)", got, want)
	}
}

// TestReusedPlatformMatchesFresh is the reset-semantics property test: a
// platform that ran a workload and was Reset produces byte-identical
// counters and timings to a factory-fresh platform running the same
// workload — for both movement designs — and is DeepEqual to it right
// after the Reset.
func TestReusedPlatformMatchesFresh(t *testing.T) {
	workload := func(p *Platform) {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			n := int64(rng.Intn(int(512*units.KB))) + 1
			if rng.Intn(2) == 0 {
				p.Copier.Copy(p.Slow, 0, p.Fast, 0, n)
			} else {
				p.Copier.Copy(p.Fast, 0, p.Slow, 0, n)
			}
			if rng.Intn(4) == 0 {
				p.Fast.Read(n, Sequential(4))
				p.Slow.Write(n, Access{Threads: 2, Granularity: 64})
			}
		}
	}
	for _, async := range []bool{false, true} {
		mk := func() *Platform {
			p := NewPlatform(PlatformConfig{
				FastCapacity: units.MB, SlowCapacity: units.MB, CopyThreads: 4,
			})
			p.Copier.Async = async
			return p
		}
		reused := mk()
		workload(reused)
		reused.Reset()
		// Not just the fields compared below: every field, exported or
		// not, of every component is back to its just-built value.
		if fresh := mk(); !reflect.DeepEqual(reused, fresh) {
			t.Errorf("async=%v: Reset platform differs from a fresh one:\nreset %+v\nfresh %+v",
				async, platformState(reused), platformState(fresh))
		}
		workload(reused)

		fresh := mk()
		workload(fresh)

		if reused.Fast.Counters() != fresh.Fast.Counters() {
			t.Errorf("async=%v: fast counters diverge: reused %+v, fresh %+v",
				async, reused.Fast.Counters(), fresh.Fast.Counters())
		}
		if reused.Slow.Counters() != fresh.Slow.Counters() {
			t.Errorf("async=%v: slow counters diverge: reused %+v, fresh %+v",
				async, reused.Slow.Counters(), fresh.Slow.Counters())
		}
		if reused.Clock.Now() != fresh.Clock.Now() {
			t.Errorf("async=%v: clocks diverge: reused %v, fresh %v",
				async, reused.Clock.Now(), fresh.Clock.Now())
		}
		if reused.Copier.BusyUntil() != fresh.Copier.BusyUntil() {
			t.Errorf("async=%v: movers diverge: reused %v, fresh %v",
				async, reused.Copier.BusyUntil(), fresh.Copier.BusyUntil())
		}
	}
}

// TestCountersSubAcrossReset pins the snapshot-diff semantics the engine
// relies on for per-iteration metrics: Sub of a later snapshot against an
// earlier one isolates exactly the traffic in between, and Reset
// starts a clean epoch (snapshots must not be carried across it).
func TestCountersSubAcrossReset(t *testing.T) {
	d := NewDevice("dram", DRAM, units.MB, DRAMProfile())
	d.Read(1000, Sequential(1))
	d.Write(500, Sequential(1))
	snap := d.Counters()

	d.Read(300, Sequential(1))
	d.Write(200, Sequential(1))
	delta := d.Counters().Sub(snap)
	if delta.ReadBytes != 300 || delta.WriteBytes != 200 {
		t.Fatalf("delta = %+v, want reads 300 writes 200", delta)
	}
	if delta.ReadOps != 1 || delta.WriteOps != 1 {
		t.Fatalf("delta ops = %+v, want 1/1", delta)
	}
	if delta.BusyTime <= 0 || delta.BusyTime >= d.Counters().BusyTime {
		t.Fatalf("delta busy time %v outside (0, total)", delta.BusyTime)
	}

	d.Reset()
	if d.Counters() != (Counters{}) {
		t.Fatalf("counters after reset: %+v", d.Counters())
	}
	d.Read(64, Sequential(1))
	epoch := d.Counters()
	if epoch.ReadBytes != 64 || epoch.WriteBytes != 0 {
		t.Fatalf("post-reset epoch = %+v", epoch)
	}
}
