package memsim

import (
	"cachedarrays/internal/faults"
	"cachedarrays/internal/units"
)

// ComputeProfile models the CPU side of the platform: the oneDNN-class
// kernels of the paper run on 28 cores of a Xeon Platinum 8276L. Kernel
// time is a roofline: max(flops/PeakFlops, Σ_device bytes/bandwidth) plus a
// fixed launch overhead.
type ComputeProfile struct {
	// PeakFlops is the effective fp32 throughput in FLOP/s (peak ×
	// realistic oneDNN efficiency).
	PeakFlops float64
	// KernelThreads is the thread count kernels use for their own memory
	// traffic.
	KernelThreads int
	// LaunchOverhead is the fixed per-kernel cost in seconds.
	LaunchOverhead float64
}

// Platform bundles the virtual clock, the two memory devices, the copy
// engine and the compute profile: everything the engines need to model one
// socket of the paper's testbed.
type Platform struct {
	Clock   *Clock
	Fast    *Device // DRAM
	Slow    *Device // NVRAM
	Copier  *CopyEngine
	Compute ComputeProfile
}

// PlatformConfig selects the capacities (and optional real backing) for a
// platform. Zero values take the paper defaults.
type PlatformConfig struct {
	// FastCapacity is the DRAM budget (paper: 180 GB usable per socket).
	FastCapacity int64
	// SlowCapacity is the NVRAM budget (paper: 1300 GB per socket).
	SlowCapacity int64
	// CopyThreads sizes the copy engine pool (paper: "highly
	// multi-threaded", one thread per core).
	CopyThreads int
	// Backed allocates real host memory for both devices. Only sensible
	// for small capacities (tests, examples).
	Backed bool
}

// DefaultFastCapacity and DefaultSlowCapacity are the per-socket budgets the
// paper configures for all large-network runs (§IV-A).
const (
	DefaultFastCapacity = 180 * units.GB
	DefaultSlowCapacity = 1300 * units.GB
	DefaultCopyThreads  = 28
)

// DRAMProfile returns the bandwidth profile for one socket's six DDR4
// channels.
func DRAMProfile() BandwidthProfile {
	return BandwidthProfile{
		PeakRead:          105e9,
		PeakWrite:         85e9,
		RandomRead:        25e9,
		RandomWrite:       20e9,
		WritePeakThreads:  0, // DRAM write bandwidth scales with threads
		TemporalWriteFrac: 1,
	}
}

// NVRAMProfile returns the bandwidth profile for one socket's six Optane DC
// DIMMs, following the measurements the paper cites (Izraelevitz et al.;
// Hildebrand et al. ISPASS'21): reads "not much slower than DRAM",
// sequential non-temporal writes ~12 GB/s peaking at low thread counts,
// severe degradation for 64 B-grain haphazard traffic.
func NVRAMProfile() BandwidthProfile {
	return BandwidthProfile{
		PeakRead:          38e9,
		PeakWrite:         12e9,
		RandomRead:        8e9,
		RandomWrite:       4e9,
		WritePeakThreads:  4,
		WriteFloorFrac:    0.35,
		TemporalWriteFrac: 0.65,
	}
}

// CXLProfile returns a bandwidth profile for CXL-attached remote memory —
// the disaggregated tier the paper's §VI extension targets. Compared to
// Optane NVRAM it is symmetric and considerably friendlier: DRAM behind a
// CXL 2.0 x8 link, roughly 28 GB/s each way, no write-parallelism collapse
// and no non-temporal-store sensitivity; small accesses pay the link's
// packetization overhead instead of media penalties.
func CXLProfile() BandwidthProfile {
	return BandwidthProfile{
		PeakRead:          28e9,
		PeakWrite:         28e9,
		RandomRead:        12e9,
		RandomWrite:       12e9,
		WritePeakThreads:  0,
		TemporalWriteFrac: 1,
	}
}

// DefaultCompute returns the compute profile for 28 Cascade Lake cores
// running oneDNN-class fp32 kernels.
func DefaultCompute() ComputeProfile {
	return ComputeProfile{
		PeakFlops:      2.2e12,
		KernelThreads:  28,
		LaunchOverhead: 20e-6,
	}
}

// NewPlatform builds a platform from cfg, applying paper defaults for zero
// fields.
func NewPlatform(cfg PlatformConfig) *Platform {
	if cfg.FastCapacity == 0 {
		cfg.FastCapacity = DefaultFastCapacity
	}
	if cfg.SlowCapacity == 0 {
		cfg.SlowCapacity = DefaultSlowCapacity
	}
	if cfg.CopyThreads == 0 {
		cfg.CopyThreads = DefaultCopyThreads
	}
	clock := &Clock{}
	fast := NewDevice("dram", DRAM, cfg.FastCapacity, DRAMProfile())
	slow := NewDevice("nvram", NVRAM, cfg.SlowCapacity, NVRAMProfile())
	if cfg.Backed {
		fast.AttachBacking(make([]byte, cfg.FastCapacity))
		slow.AttachBacking(make([]byte, cfg.SlowCapacity))
	}
	return &Platform{
		Clock:   clock,
		Fast:    fast,
		Slow:    slow,
		Copier:  NewCopyEngine(clock, cfg.CopyThreads),
		Compute: DefaultCompute(),
	}
}

// DefaultPlatform returns the paper's single-socket configuration
// (180 GB DRAM + 1300 GB NVRAM, unbacked).
func DefaultPlatform() *Platform { return NewPlatform(PlatformConfig{}) }

// InjectFaults attaches inj to every component that consults a fault
// injector (both devices and the copy engine). The injector is not a clock
// observer — components ask it for a value — and it stays for the
// platform's lifetime, which is one run.
func (p *Platform) InjectFaults(inj *faults.Injector) {
	p.Fast.Faults = inj
	p.Slow.Faults = inj
	p.Copier.Faults = inj
}

// Device returns the device of the given kind.
func (p *Platform) Device(k Kind) *Device {
	if k == DRAM {
		return p.Fast
	}
	return p.Slow
}
