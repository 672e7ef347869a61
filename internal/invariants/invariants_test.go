package invariants_test

import (
	"strings"
	"testing"

	"cachedarrays/internal/dm"
	"cachedarrays/internal/invariants"
	"cachedarrays/internal/memsim"
)

func testPlatform() *memsim.Platform {
	clock := &memsim.Clock{}
	return &memsim.Platform{
		Clock:   clock,
		Fast:    memsim.NewDevice("fast", memsim.DRAM, 1<<20, memsim.DRAMProfile()),
		Slow:    memsim.NewDevice("slow", memsim.NVRAM, 4<<20, memsim.NVRAMProfile()),
		Copier:  memsim.NewCopyEngine(clock, 4),
		Compute: memsim.DefaultCompute(),
	}
}

func TestHealthyRunPasses(t *testing.T) {
	p := testPlatform()
	m := dm.New(p)
	chk := invariants.New(m, p)
	p.Clock.Observe(chk)

	o, err := m.NewObject(64<<10, dm.Fast)
	if err != nil {
		t.Fatal(err)
	}
	y, err := m.Allocate(dm.Slow, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CopyToE(y, m.GetPrimary(o)); err != nil { // advances the clock -> audits
		t.Fatal(err)
	}
	if err := m.Link(m.GetPrimary(o), y); err != nil {
		t.Fatal(err)
	}
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if chk.Checks() == 0 {
		t.Fatal("attached checker never audited despite clock advances")
	}
	if err := chk.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
}

func TestDetectsLeakedRegionAtQuiesce(t *testing.T) {
	p := testPlatform()
	m := dm.New(p)
	chk := invariants.New(m, p)

	r, err := m.Allocate(dm.Fast, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-operation, an unbound region is legal (its bytes are in
	// flight)...
	if err := chk.Check(); err != nil {
		t.Fatalf("mid-operation check rejected a transient unbound region: %v", err)
	}
	// ...but at a quiesce point it is a leak.
	err = chk.CheckQuiesced()
	if err == nil || !strings.Contains(err.Error(), "leaked") {
		t.Fatalf("CheckQuiesced = %v, want leaked-region violation", err)
	}
	m.Free(r)
	if err := chk.CheckQuiesced(); err != nil {
		t.Fatalf("after freeing the leak: %v", err)
	}
}

func TestDetectsClockRunningBackwards(t *testing.T) {
	p := testPlatform()
	m := dm.New(p)
	chk := invariants.New(m, p)

	p.Clock.Advance(1.0)
	if err := chk.Check(); err != nil {
		t.Fatal(err)
	}
	*p.Clock = memsim.Clock{} // rewinds time under the checker's feet
	err := chk.Check()
	if err == nil || !strings.Contains(err.Error(), "backwards") {
		t.Fatalf("Check = %v, want clock-ran-backwards violation", err)
	}
}

// TestDetectsCountersDroppingToZero: no run ever zeroes a device's
// counters, so a device whose traffic vanishes — here a fresh device
// swapped in under an attached checker — is a counter running backwards,
// not a new measurement window.
func TestDetectsCountersDroppingToZero(t *testing.T) {
	p := testPlatform()
	m := dm.New(p)
	chk := invariants.New(m, p)
	p.Clock.Observe(chk)

	p.Fast.Read(64<<10, memsim.Sequential(1))
	p.Fast.Write(64<<10, memsim.Sequential(1))
	p.Clock.Advance(1.0)
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	p.Fast = memsim.NewDevice("fast", memsim.DRAM, 1<<20, memsim.DRAMProfile())
	err := chk.Check()
	if err == nil || !strings.Contains(err.Error(), "counters ran backwards") {
		t.Fatalf("Check = %v, want counters-ran-backwards violation", err)
	}
}

func TestAttachedCheckerRecordsFirstViolationWithTimestamp(t *testing.T) {
	p := testPlatform()
	m := dm.New(p)
	chk := invariants.New(m, p)
	p.Clock.Observe(chk)

	p.Clock.Advance(2.0)
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	*p.Clock = memsim.Clock{} // rewinds time and drops every observer
	p.Clock.Observe(chk)      // a checker carried across the rewind...
	p.Clock.Advance(0.5)      // ...sees now < lastNow on its first advance
	err := chk.Err()
	if err == nil || !strings.Contains(err.Error(), "at t=") {
		t.Fatalf("Err = %v, want timestamped violation", err)
	}
	before := chk.Checks()
	p.Clock.Advance(0.25) // checker stands down after the first violation
	if chk.Checks() != before {
		t.Fatal("checker kept auditing after recording a violation")
	}
	p.Clock.Unobserve(chk)
	if n := p.Clock.Observers(); n != 0 {
		t.Fatalf("Unobserve left %d observers on the clock", n)
	}
}
