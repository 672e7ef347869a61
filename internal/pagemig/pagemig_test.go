package pagemig

import (
	"testing"

	"cachedarrays/internal/memsim"
	"cachedarrays/internal/units"
)

func newMig(t testing.TB, fastCap, slowCap int64, cfg Config) (*Migrator, *memsim.Platform) {
	t.Helper()
	p := memsim.NewPlatform(memsim.PlatformConfig{
		FastCapacity: fastCap, SlowCapacity: slowCap, CopyThreads: 4,
	})
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

var testCfg = Config{PageSize: 4096, EpochKernels: 1, Decay: 0.5, PromoteMargin: 1.25}

var seqAccess = memsim.Access{Threads: 4, Granularity: 32 << 10}

func TestNewValidation(t *testing.T) {
	p := memsim.NewPlatform(memsim.PlatformConfig{FastCapacity: 1 << 20, SlowCapacity: 1 << 22})
	if _, err := New(p, Config{PageSize: 0}); err == nil {
		t.Error("zero page size accepted")
	}
	if _, err := New(p, Config{PageSize: 64}); err == nil {
		// 1 << 22 / 64 = 64K pages: fine. Use a huge space instead.
		t.Log("small pages accepted for small spaces (ok)")
	}
	big := memsim.NewPlatform(memsim.PlatformConfig{
		FastCapacity: 180 * units.GB, SlowCapacity: 1300 * units.GB,
	})
	if _, err := New(big, Config{PageSize: 4096}); err == nil {
		t.Error("terabyte space with 4 KiB pages accepted (too many pages)")
	}
	if _, err := New(big, DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestAccessStartsSlow(t *testing.T) {
	m, p := newMig(t, 64<<10, 1<<20, testCfg)
	r := m.Access(0, 8192, false, seqAccess)
	if r.SlowBytes != 8192 || r.FastBytes != 0 {
		t.Fatalf("fresh pages not slow: %+v", r)
	}
	if r.Time <= 0 {
		t.Fatal("access free")
	}
	if p.Slow.Counters().ReadBytes != 8192 {
		t.Fatal("traffic not recorded")
	}
}

func TestEpochPromotesHotPages(t *testing.T) {
	m, _ := newMig(t, 64<<10, 1<<20, testCfg)
	// Hammer two pages.
	for i := 0; i < 10; i++ {
		m.Access(0, 2*4096, false, seqAccess)
	}
	el := m.Epoch()
	if el <= 0 {
		t.Fatal("promotion epoch took no time")
	}
	if m.FastPages() != 2 {
		t.Fatalf("fast pages = %d, want 2", m.FastPages())
	}
	r := m.Access(0, 2*4096, false, seqAccess)
	if r.FastBytes != 2*4096 {
		t.Fatalf("promoted pages not served from fast: %+v", r)
	}
	s := m.Stats()
	if s.Promotions != 2 || s.Demotions != 0 || s.Epochs != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestEpochDemotesColdForHotter(t *testing.T) {
	// Fast fits exactly 2 pages.
	m, _ := newMig(t, 8192, 1<<20, testCfg)
	// Pages 0,1 hot -> promoted.
	for i := 0; i < 4; i++ {
		m.Access(0, 2*4096, false, seqAccess)
	}
	m.Epoch()
	if m.FastPages() != 2 {
		t.Fatalf("fast pages = %d", m.FastPages())
	}
	// Now pages 8,9 become much hotter; 0,1 go cold (decay).
	for e := 0; e < 4; e++ {
		for i := 0; i < 8; i++ {
			m.Access(8*4096, 2*4096, false, seqAccess)
		}
		m.Epoch()
	}
	r := m.Access(8*4096, 2*4096, false, seqAccess)
	if r.FastBytes != 2*4096 {
		t.Fatalf("hot pages not promoted after displacement: %+v", r)
	}
	if m.Stats().Demotions == 0 {
		t.Fatal("no demotions recorded")
	}
	if m.FastPages() != 2 {
		t.Fatalf("fast over quota: %d", m.FastPages())
	}
}

func TestHysteresisPreventsThrash(t *testing.T) {
	m, _ := newMig(t, 4096, 1<<20, testCfg)
	// Page 0 and page 5 equally warm: after 0 is resident, 5 must not
	// displace it (margin not met).
	for i := 0; i < 4; i++ {
		m.Access(0, 4096, false, seqAccess)
	}
	m.Epoch()
	for i := 0; i < 2; i++ { // equal post-decay warmth
		m.Access(0, 4096, false, seqAccess)
		m.Access(5*4096, 4096, false, seqAccess)
	}
	m.Epoch()
	if m.Stats().Demotions != 0 {
		t.Fatalf("equal-warmth page displaced a resident one: %+v", m.Stats())
	}
}

func TestMigrateBudgetBounds(t *testing.T) {
	cfg := testCfg
	cfg.MaxMigrateBytes = 4096 // one page per epoch
	m, _ := newMig(t, 64<<10, 1<<20, cfg)
	for i := 0; i < 4; i++ {
		m.Access(0, 8*4096, false, seqAccess)
	}
	m.Epoch()
	if got := m.Stats().PromotedBytes; got > 4096 {
		t.Fatalf("epoch moved %d bytes, budget 4096", got)
	}
}

func TestAccessSplitAcrossTiers(t *testing.T) {
	m, _ := newMig(t, 4096, 1<<20, testCfg)
	for i := 0; i < 4; i++ {
		m.Access(0, 4096, false, seqAccess)
	}
	m.Epoch() // page 0 -> fast
	r := m.Access(0, 8192, true, seqAccess)
	if r.FastBytes != 4096 || r.SlowBytes != 4096 {
		t.Fatalf("split wrong: %+v", r)
	}
}

func TestZeroAndOutOfRange(t *testing.T) {
	m, _ := newMig(t, 4096, 1<<20, testCfg)
	if r := m.Access(0, 0, false, seqAccess); r != (AccessResult{}) {
		t.Fatal("zero access did something")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	m.Access(1<<20-100, 4096, false, seqAccess)
}

func TestDecayForgetsHistory(t *testing.T) {
	m, _ := newMig(t, 4096, 1<<20, testCfg)
	for i := 0; i < 8; i++ {
		m.Access(0, 4096, false, seqAccess)
	}
	for e := 0; e < 20; e++ {
		m.Epoch()
	}
	// After heavy decay, a newly warm page displaces the old one.
	for i := 0; i < 3; i++ {
		m.Access(7*4096, 4096, false, seqAccess)
	}
	m.Epoch()
	r := m.Access(7*4096, 4096, false, seqAccess)
	if r.FastBytes != 4096 {
		t.Fatalf("decayed resident page not displaced: %+v", r)
	}
}
