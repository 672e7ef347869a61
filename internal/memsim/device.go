package memsim

import (
	"fmt"

	"cachedarrays/internal/faults"
)

// Kind identifies the technology class of a memory device.
type Kind int

const (
	// DRAM is conventional high-bandwidth volatile memory.
	DRAM Kind = iota
	// NVRAM is phase-change persistent memory (Optane DC class): large,
	// with asymmetric bandwidth — reads are moderately slower than DRAM
	// while writes are slow, parallelism-sensitive and strongly favour
	// non-temporal, well-shaped streams.
	NVRAM
)

func (k Kind) String() string {
	switch k {
	case DRAM:
		return "DRAM"
	case NVRAM:
		return "NVRAM"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Access describes how a batch of traffic hits a device. The effective
// bandwidth of both DRAM and (especially) NVRAM depends on the shape of the
// traffic, which is the mechanism behind several of the paper's results
// ("traffic shaping", §V-b).
type Access struct {
	// Threads is the number of cooperating threads issuing the traffic.
	// NVRAM write bandwidth peaks at a small thread count and then
	// *decreases* (paper §V-d); 0 means 1.
	Threads int
	// Granularity is the contiguous run length in bytes of each access.
	// 0 means fully sequential (best case). Hardware-cache-line traffic
	// uses the cache's line size here.
	Granularity int64
	// NonTemporal marks writes that bypass the CPU cache hierarchy
	// (streaming stores). These are "crucial for best performance" on
	// NVRAM (paper §V-d); regular stores see roughly half the bandwidth.
	NonTemporal bool
}

// Sequential is the best-case access shape used by the copy engine.
func Sequential(threads int) Access {
	return Access{Threads: threads, NonTemporal: true}
}

// BandwidthProfile captures a device's bandwidth characteristics. All
// bandwidths are bytes/second.
type BandwidthProfile struct {
	// PeakRead/PeakWrite: sequential, well-shaped traffic.
	PeakRead  float64
	PeakWrite float64
	// RandomRead/RandomWrite: 64-byte-grain haphazard traffic (the 2LM
	// miss path).
	RandomRead  float64
	RandomWrite float64
	// WritePeakThreads is the thread count at which write bandwidth
	// peaks; beyond it, bandwidth decays as peak*WritePeakThreads/threads
	// down to WriteFloorFrac*peak. 0 disables the effect (DRAM).
	WritePeakThreads int
	// WriteFloorFrac bounds the parallelism decay from below.
	WriteFloorFrac float64
	// TemporalWriteFrac is the bandwidth fraction achieved by writes that
	// do NOT use non-temporal stores. 1.0 for DRAM; ~0.5 for NVRAM.
	TemporalWriteFrac float64
}

// granHalf is the run length at which shaped traffic reaches half the gap
// between random and peak bandwidth (a saturating g/(g+granHalf) curve).
const granHalf = 32 << 10 // 32 KiB

// shapeFactor interpolates between random and peak bandwidth for a given
// access granularity.
func shapeFactor(random, peak float64, granularity int64) float64 {
	if granularity <= 0 {
		return peak
	}
	g := float64(granularity)
	f := g / (g + granHalf)
	// float64() rounds the product: no fused multiply-add on any GOARCH.
	return random + float64((peak-random)*f)
}

// ReadBandwidth returns the effective read bandwidth for an access shape.
func (p BandwidthProfile) ReadBandwidth(a Access) float64 {
	return shapeFactor(p.RandomRead, p.PeakRead, a.Granularity)
}

// WriteBandwidth returns the effective write bandwidth for an access shape.
// The parallelism collapse applies to concurrent non-temporal store streams
// (they thrash the DIMM's write-combining buffer); regular cached stores
// drain through the memory controller at its own pacing and instead pay the
// TemporalWriteFrac penalty.
func (p BandwidthProfile) WriteBandwidth(a Access) float64 {
	bw := shapeFactor(p.RandomWrite, p.PeakWrite, a.Granularity)
	threads := a.Threads
	if threads <= 0 {
		threads = 1
	}
	if a.NonTemporal && p.WritePeakThreads > 0 && threads > p.WritePeakThreads {
		frac := float64(p.WritePeakThreads) / float64(threads)
		if frac < p.WriteFloorFrac {
			frac = p.WriteFloorFrac
		}
		bw *= frac
	}
	if !a.NonTemporal && p.TemporalWriteFrac > 0 && p.TemporalWriteFrac < 1 {
		bw *= p.TemporalWriteFrac
	}
	return bw
}

// Counters accumulates the traffic and busy-time statistics the paper
// gathers from hardware performance counters (§IV-A).
type Counters struct {
	ReadBytes  int64
	WriteBytes int64
	ReadOps    int64
	WriteOps   int64
	// BusyTime is the total seconds the device's bus spent servicing
	// traffic; utilization = BusyTime / elapsed (Fig. 6).
	BusyTime float64
}

// Add accumulates o into c (used to diff counter snapshots).
func (c *Counters) Add(o Counters) {
	c.ReadBytes += o.ReadBytes
	c.WriteBytes += o.WriteBytes
	c.ReadOps += o.ReadOps
	c.WriteOps += o.WriteOps
	c.BusyTime += o.BusyTime
}

// Sub returns c - o, the traffic between two snapshots.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		ReadBytes:  c.ReadBytes - o.ReadBytes,
		WriteBytes: c.WriteBytes - o.WriteBytes,
		ReadOps:    c.ReadOps - o.ReadOps,
		WriteOps:   c.WriteOps - o.WriteOps,
		BusyTime:   c.BusyTime - o.BusyTime,
	}
}

// TotalBytes is read + write traffic.
func (c Counters) TotalBytes() int64 { return c.ReadBytes + c.WriteBytes }

// Device models one memory pool (one NUMA node's DRAM, or the NVRAM DIMMs
// behind it). A Device is an address space [0, Capacity); it may optionally
// be backed by host memory so that data actually round-trips (used by the
// examples and correctness tests), or unbacked so terabyte heaps are pure
// metadata (used by the paper-scale experiments).
type Device struct {
	Name     string
	Kind     Kind
	Capacity int64
	Profile  BandwidthProfile

	// Faults, when non-nil, lets bandwidth-collapse episodes inflate the
	// device's access times for their duration. Nil (the default) costs
	// one branch per time computation, so fault-free runs are
	// byte-identical to an uninstrumented device.
	Faults *faults.Injector

	counters Counters
	backing  []byte
}

// NewDevice creates an unbacked device.
func NewDevice(name string, kind Kind, capacity int64, profile BandwidthProfile) *Device {
	if capacity < 0 {
		panic(fmt.Sprintf("memsim: negative capacity %d for device %s", capacity, name))
	}
	return &Device{Name: name, Kind: kind, Capacity: capacity, Profile: profile}
}

// AttachBacking gives the device real host memory. len(buf) must equal
// Capacity.
func (d *Device) AttachBacking(buf []byte) {
	if int64(len(buf)) != d.Capacity {
		panic(fmt.Sprintf("memsim: backing size %d != capacity %d for device %s",
			len(buf), d.Capacity, d.Name))
	}
	d.backing = buf
}

// Backed reports whether the device holds real bytes.
func (d *Device) Backed() bool { return d.backing != nil }

// Data returns the backing bytes for [offset, offset+size). It panics if
// the device is unbacked or the range is out of bounds — both are program
// errors, not recoverable conditions.
func (d *Device) Data(offset, size int64) []byte {
	if d.backing == nil {
		panic(fmt.Sprintf("memsim: device %s is not backed", d.Name))
	}
	if offset < 0 || size < 0 || offset+size > d.Capacity {
		panic(fmt.Sprintf("memsim: out-of-bounds access [%d,%d) on device %s (capacity %d)",
			offset, offset+size, d.Name, d.Capacity))
	}
	return d.backing[offset : offset+size]
}

// Counters returns a snapshot of the device's traffic counters.
func (d *Device) Counters() Counters { return d.counters }

// ReadTime returns the seconds needed to read n bytes with the given access
// shape, without recording any traffic (used for projections).
func (d *Device) ReadTime(n int64, a Access) float64 {
	if n <= 0 {
		return 0
	}
	t := float64(n) / d.Profile.ReadBandwidth(a)
	if d.Faults != nil {
		t *= d.Faults.TimeScale(d.Name)
	}
	return t
}

// WriteTime is ReadTime's write-side counterpart.
func (d *Device) WriteTime(n int64, a Access) float64 {
	if n <= 0 {
		return 0
	}
	t := float64(n) / d.Profile.WriteBandwidth(a)
	if d.Faults != nil {
		t *= d.Faults.TimeScale(d.Name)
	}
	return t
}

// Read records n bytes of read traffic and returns the time it took.
func (d *Device) Read(n int64, a Access) float64 {
	t := d.ReadTime(n, a)
	if n > 0 {
		d.counters.ReadBytes += n
		d.counters.ReadOps++
		d.counters.BusyTime += t
	}
	return t
}

// Write records n bytes of write traffic and returns the time it took.
func (d *Device) Write(n int64, a Access) float64 {
	t := d.WriteTime(n, a)
	if n > 0 {
		d.counters.WriteBytes += n
		d.counters.WriteOps++
		d.counters.BusyTime += t
	}
	return t
}
