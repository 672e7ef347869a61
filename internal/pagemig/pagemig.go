// Package pagemig models OS-level page-based memory tiering — the
// Nimble/HeMem/Thermostat family of Table I ("Operating System / Page /
// Transparent / Virtual Memory"). It is the third data-management
// mechanism this repository compares: reactive, application-transparent
// migration of fixed-size pages based on observed hotness, with no
// knowledge of the application's future data use.
//
// The model: a flat virtual address space backed by NVRAM; a per-page
// access counter; and a periodic migration epoch that promotes the
// hottest slow pages into DRAM and demotes the coldest fast pages to make
// room, charging the migration traffic to the copy engine. Hotness decays
// each epoch so the migrator tracks phase changes — eventually. "Like
// hardware-based techniques, these works do not take into account future
// information about the data use" (paper §II), which is exactly what this
// baseline demonstrates against CachedArrays' hint-driven policy.
package pagemig

import (
	"fmt"

	"cachedarrays/internal/memsim"
)

// Config parameterizes the migrator.
type Config struct {
	// PageSize is the migration granularity. Default 2 MiB (the huge
	// pages tiering systems prefer; 4 KiB pages are supported but make
	// terabyte address spaces slow to simulate).
	PageSize int64
	// EpochKernels is the number of kernel launches between migration
	// epochs (the OS daemon's scan interval in kernel-time units).
	EpochKernels int
	// Decay multiplies every page's hotness at each epoch (0..1).
	Decay float64
	// PromoteMargin is how much hotter a slow page must be than the
	// fast page it would displace (hysteresis against thrashing).
	PromoteMargin float64
	// MaxMigrateBytes bounds the data moved per epoch (the daemon's
	// bandwidth budget). 0 = unlimited.
	MaxMigrateBytes int64
}

// DefaultConfig returns a HeMem-flavoured configuration.
func DefaultConfig() Config {
	return Config{
		PageSize:        2 << 20,
		EpochKernels:    25,
		Decay:           0.5,
		PromoteMargin:   1.25,
		MaxMigrateBytes: 16 << 30,
	}
}

// Stats counts migrator activity.
type Stats struct {
	Promotions    int64
	Demotions     int64
	PromotedBytes int64
	DemotedBytes  int64
	Epochs        int64
	MigrateTime   float64
}

// Migrator is the page-tiering engine over a flat address space.
type Migrator struct {
	cfg    Config
	fast   *memsim.Device
	slow   *memsim.Device
	copier *memsim.CopyEngine

	numPages  int64
	fastQuota int64 // pages that fit in DRAM
	inFast    []bool
	hot       []float64
	fastUsed  int64
	stats     Stats

	// touched is one past the highest page any Access has reached. Pages
	// at or above it still have hot == 0 and !inFast, so Epoch's scan and
	// decay stop there; at paper scale that is a third of the address
	// space.
	touched int64
	// Epoch's candidate lists, kept between epochs so a steady-state
	// epoch allocates nothing. fastCold holds negated hotness, so that
	// "hotter first" orders it coldest first.
	slowHot, fastCold hotOrder
}

// cand is one migration candidate: a page and its hotness at scan time.
type cand struct {
	pg  int64
	hot float64
}

// New builds a migrator whose address space spans the slow device.
func New(p *memsim.Platform, cfg Config) (*Migrator, error) {
	if cfg.PageSize <= 0 {
		return nil, fmt.Errorf("pagemig: invalid page size %d", cfg.PageSize)
	}
	numPages := (p.Slow.Capacity + cfg.PageSize - 1) / cfg.PageSize
	if numPages <= 0 {
		return nil, fmt.Errorf("pagemig: empty address space")
	}
	const maxPages = 64 << 20
	if numPages > maxPages {
		return nil, fmt.Errorf("pagemig: %d pages exceeds simulation limit (raise PageSize)", numPages)
	}
	return &Migrator{
		cfg:       cfg,
		fast:      p.Fast,
		slow:      p.Slow,
		copier:    p.Copier,
		numPages:  numPages,
		fastQuota: p.Fast.Capacity / cfg.PageSize,
		inFast:    make([]bool, numPages),
		hot:       make([]float64, numPages),
	}, nil
}

// Stats returns a snapshot of migrator activity.
func (m *Migrator) Stats() Stats { return m.stats }

// FastPages returns how many pages currently reside in DRAM.
func (m *Migrator) FastPages() int64 { return m.fastUsed }

// AccessResult reports how one access was served.
type AccessResult struct {
	Time      float64
	FastBytes int64
	SlowBytes int64
}

// Access runs [addr, addr+size) through the tiered address space: hotness
// counters bump, traffic is recorded on whichever device each page lives
// on, and the modelled service time is returned. access is the kernel's
// access shape.
func (m *Migrator) Access(addr, size int64, write bool, access memsim.Access) AccessResult {
	if size <= 0 {
		return AccessResult{}
	}
	if addr < 0 || addr+size > m.slow.Capacity {
		panic(fmt.Sprintf("pagemig: access [%d,%d) out of range", addr, addr+size))
	}
	first := addr / m.cfg.PageSize
	last := (addr + size - 1) / m.cfg.PageSize
	if last >= m.touched {
		m.touched = last + 1
	}
	var fastBytes, slowBytes int64
	for pg := first; pg <= last; pg++ {
		m.hot[pg]++
		lo := pg * m.cfg.PageSize
		hi := lo + m.cfg.PageSize
		if lo < addr {
			lo = addr
		}
		if hi > addr+size {
			hi = addr + size
		}
		if m.inFast[pg] {
			fastBytes += hi - lo
		} else {
			slowBytes += hi - lo
		}
	}
	var t float64
	if write {
		t += m.fast.Write(fastBytes, access)
		t += m.slow.Write(slowBytes, access)
	} else {
		t += m.fast.Read(fastBytes, access)
		t += m.slow.Read(slowBytes, access)
	}
	return AccessResult{Time: t, FastBytes: fastBytes, SlowBytes: slowBytes}
}

// pageBytes is how much of page pg the address space backs: a full page,
// except for the last one when the slow capacity is not a multiple of
// the page size.
func (m *Migrator) pageBytes(pg int64) int64 {
	return min(m.cfg.PageSize, m.slow.Capacity-pg*m.cfg.PageSize)
}

// Epoch runs one migration pass: the hottest slow pages displace the
// coldest fast pages (with hysteresis), hotness decays, and the modelled
// migration time is returned (the caller charges it to the clock — the
// paper's OS baselines pay this on the application's critical path via
// page faults and TLB shootdowns).
//
// Which of several equally hot pages migrates when the budget or the
// DRAM quota cuts a tie group is decided by the order pdqsort leaves
// them in, and committed results depend on it. The sort is pagemig's
// own copy of Go 1.24's (hotorder.go), so a toolchain cannot move that
// order; the comparison must stay hotness alone with ties equal
// (TestEpochTieOrderPinned).
func (m *Migrator) Epoch() float64 {
	m.stats.Epochs++
	// One pass collects the candidates and decays every page; each cand
	// keeps the pre-decay hotness the loop below compares.
	slowHot, fastCold := m.slowHot.c[:0], m.fastCold.c[:0]
	for pg := int64(0); pg < m.touched; pg++ {
		h := m.hot[pg]
		if m.inFast[pg] {
			fastCold = append(fastCold, cand{pg, -h})
		} else if h > 0 {
			slowHot = append(slowHot, cand{pg, h})
		}
		m.hot[pg] = h * m.cfg.Decay
	}
	m.slowHot.reset(slowHot)
	m.fastCold.reset(fastCold)

	var elapsed float64
	var moved int64
	budget := m.cfg.MaxMigrateBytes
	ci := 0
	for i := range slowHot {
		if budget > 0 && moved >= budget {
			break
		}
		s := m.slowHot.at(i)
		up := m.pageBytes(s.pg)
		if m.fastUsed < m.fastQuota {
			// Free DRAM: promotion costs one page copy up.
			elapsed += m.copier.Copy(m.fast, 0, m.slow, s.pg*m.cfg.PageSize, up)
			m.inFast[s.pg] = true
			m.fastUsed++
			m.stats.Promotions++
			m.stats.PromotedBytes += up
			moved += up
			continue
		}
		// Must displace the coldest fast page — only worth it with a
		// hotness margin.
		if ci >= len(fastCold) {
			break
		}
		victim := m.fastCold.at(ci) // victim.hot is negated
		// float64() rounds the product: no fused multiply-add on any GOARCH.
		if s.hot < float64(-victim.hot*m.cfg.PromoteMargin)+1 {
			break // remaining candidates are colder still
		}
		ci++
		// Demote victim (fast -> slow), promote candidate.
		down := m.pageBytes(victim.pg)
		elapsed += m.copier.Copy(m.slow, victim.pg*m.cfg.PageSize, m.fast, 0, down)
		elapsed += m.copier.Copy(m.fast, 0, m.slow, s.pg*m.cfg.PageSize, up)
		m.inFast[victim.pg] = false
		m.inFast[s.pg] = true
		m.stats.Demotions++
		m.stats.Promotions++
		m.stats.DemotedBytes += down
		m.stats.PromotedBytes += up
		moved += down + up
	}
	m.stats.MigrateTime += elapsed
	return elapsed
}
