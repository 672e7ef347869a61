package memsim

import (
	"math"
	"testing"
	"testing/quick"

	"cachedarrays/internal/units"
)

func TestClockAdvances(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock at %v", c.Now())
	}
	c.Advance(1.5)
	c.Advance(0.5)
	if c.Now() != 2.0 {
		t.Fatalf("clock at %v, want 2.0", c.Now())
	}
}

func TestClockPanicsOnNegativeAdvance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestShapeFactorInterpolates(t *testing.T) {
	p := NVRAMProfile()
	seq := p.ReadBandwidth(Access{})
	line := p.ReadBandwidth(Access{Granularity: 64})
	mid := p.ReadBandwidth(Access{Granularity: 64 << 10})
	if seq != p.PeakRead {
		t.Errorf("sequential read bw %v != peak %v", seq, p.PeakRead)
	}
	if line >= mid || mid >= seq {
		t.Errorf("bandwidth not monotone in granularity: 64B=%v 64KiB=%v seq=%v", line, mid, seq)
	}
	if line > p.RandomRead*1.1 {
		t.Errorf("64B-grain read bw %v should be near random floor %v", line, p.RandomRead)
	}
}

func TestNVRAMWriteParallelismDecay(t *testing.T) {
	p := NVRAMProfile()
	at4 := p.WriteBandwidth(Access{Threads: 4, NonTemporal: true})
	at28 := p.WriteBandwidth(Access{Threads: 28, NonTemporal: true})
	if at28 >= at4 {
		t.Errorf("NVRAM write bw should decay with parallelism: 4T=%v 28T=%v", at4, at28)
	}
	floor := p.PeakWrite * p.WriteFloorFrac
	if at28 < floor-1 {
		t.Errorf("decay fell through floor: %v < %v", at28, floor)
	}
}

func TestDRAMWriteNotParallelismSensitive(t *testing.T) {
	p := DRAMProfile()
	at1 := p.WriteBandwidth(Access{Threads: 1, NonTemporal: true})
	at28 := p.WriteBandwidth(Access{Threads: 28, NonTemporal: true})
	if at1 != at28 {
		t.Errorf("DRAM write bw should be flat in threads: 1T=%v 28T=%v", at1, at28)
	}
}

func TestNonTemporalStoresMatterOnNVRAM(t *testing.T) {
	p := NVRAMProfile()
	nt := p.WriteBandwidth(Access{Threads: 2, NonTemporal: true})
	reg := p.WriteBandwidth(Access{Threads: 2, NonTemporal: false})
	if reg >= nt {
		t.Errorf("regular stores should be slower than non-temporal: nt=%v reg=%v", nt, reg)
	}
	if got, want := reg/nt, p.TemporalWriteFrac; math.Abs(got-want) > 1e-9 {
		t.Errorf("temporal penalty = %v, want %v", got, want)
	}
}

func TestDeviceRecordsTraffic(t *testing.T) {
	d := NewDevice("dram", DRAM, units.GB, DRAMProfile())
	rt := d.Read(100*units.MB, Sequential(4))
	wt := d.Write(50*units.MB, Sequential(4))
	c := d.Counters()
	if c.ReadBytes != 100*units.MB || c.WriteBytes != 50*units.MB {
		t.Errorf("counters = %+v", c)
	}
	if c.ReadOps != 1 || c.WriteOps != 1 {
		t.Errorf("ops = %+v", c)
	}
	if got := c.BusyTime; math.Abs(got-(rt+wt)) > 1e-12 {
		t.Errorf("busy time %v != read %v + write %v", got, rt, wt)
	}
}

func TestZeroByteTrafficIsFree(t *testing.T) {
	d := NewDevice("dram", DRAM, units.GB, DRAMProfile())
	if d.Read(0, Sequential(1)) != 0 || d.Write(0, Sequential(1)) != 0 {
		t.Error("zero-byte traffic took time")
	}
	if d.Counters() != (Counters{}) {
		t.Errorf("zero-byte traffic recorded: %+v", d.Counters())
	}
}

func TestCountersSubAdd(t *testing.T) {
	a := Counters{ReadBytes: 10, WriteBytes: 20, ReadOps: 1, WriteOps: 2, BusyTime: 0.5}
	b := Counters{ReadBytes: 3, WriteBytes: 5, ReadOps: 1, WriteOps: 1, BusyTime: 0.25}
	d := a.Sub(b)
	if d.ReadBytes != 7 || d.WriteBytes != 15 || d.ReadOps != 0 || d.WriteOps != 1 {
		t.Errorf("Sub = %+v", d)
	}
	if d.TotalBytes() != 22 {
		t.Errorf("TotalBytes = %d", d.TotalBytes())
	}
	var acc Counters
	acc.Add(b)
	acc.Add(d)
	if acc != a {
		t.Errorf("Add round trip: %+v != %+v", acc, a)
	}
}

// TestCountersSubIsolatesInterval pins the snapshot-diff semantics the
// engine relies on for per-iteration metrics: Sub of a later snapshot
// against an earlier one isolates exactly the traffic in between.
func TestCountersSubIsolatesInterval(t *testing.T) {
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
}

func TestBackedDeviceData(t *testing.T) {
	d := NewDevice("dram", DRAM, 1024, DRAMProfile())
	if d.Backed() {
		t.Fatal("device claims backing before attach")
	}
	d.AttachBacking(make([]byte, 1024))
	if !d.Backed() {
		t.Fatal("device not backed after attach")
	}
	buf := d.Data(100, 28)
	copy(buf, "hello heterogeneous memory!")
	if string(d.Data(100, 5)) != "hello" {
		t.Error("data did not persist in backing")
	}
}

func TestDataPanicsOutOfBounds(t *testing.T) {
	d := NewDevice("dram", DRAM, 1024, DRAMProfile())
	d.AttachBacking(make([]byte, 1024))
	for _, c := range []struct{ off, size int64 }{{-1, 4}, {1020, 8}, {0, 1025}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Data(%d,%d) did not panic", c.off, c.size)
				}
			}()
			d.Data(c.off, c.size)
		}()
	}
}

func TestAttachBackingSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched backing did not panic")
		}
	}()
	d := NewDevice("dram", DRAM, 1024, DRAMProfile())
	d.AttachBacking(make([]byte, 512))
}

func TestKindString(t *testing.T) {
	if DRAM.String() != "DRAM" || NVRAM.String() != "NVRAM" {
		t.Errorf("kind strings: %v %v", DRAM, NVRAM)
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind: %v", Kind(9))
	}
}

func newBackedPair(capacity int64) (*Platform, *Device, *Device) {
	p := NewPlatform(PlatformConfig{
		FastCapacity: capacity,
		SlowCapacity: capacity,
		CopyThreads:  4,
		Backed:       true,
	})
	return p, p.Fast, p.Slow
}

func TestCopyMovesBytesAndTime(t *testing.T) {
	p, fast, slow := newBackedPair(1 << 20)
	copy(fast.Data(0, 5), "tiers")
	el := p.Copier.Copy(slow, 100, fast, 0, 5)
	if el <= 0 {
		t.Fatal("copy took no time")
	}
	if p.Clock.Now() != el {
		t.Errorf("clock %v != elapsed %v", p.Clock.Now(), el)
	}
	if string(slow.Data(100, 5)) != "tiers" {
		t.Errorf("copied data = %q", slow.Data(100, 5))
	}
	if fast.Counters().ReadBytes != 5 || slow.Counters().WriteBytes != 5 {
		t.Errorf("traffic: fast=%+v slow=%+v", fast.Counters(), slow.Counters())
	}
}

func TestCopyZeroLength(t *testing.T) {
	p, fast, slow := newBackedPair(1 << 20)
	if el := p.Copier.Copy(slow, 0, fast, 0, 0); el != 0 {
		t.Errorf("zero-length copy took %v", el)
	}
	if p.Clock.Now() != 0 {
		t.Error("zero-length copy advanced clock")
	}
}

func TestCopyOutOfBoundsPanics(t *testing.T) {
	p, fast, slow := newBackedPair(1 << 10)
	cases := []struct{ dstOff, srcOff, n int64 }{
		{-1, 0, 4}, {0, -1, 4}, {1 << 10, 0, 4}, {0, 1020, 8}, {0, 0, -1},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Copy(dst@%d, src@%d, %d) did not panic", c.dstOff, c.srcOff, c.n)
				}
			}()
			p.Copier.Copy(slow, c.dstOff, fast, c.srcOff, c.n)
		}()
	}
}

func TestCopyDurationIsPipelinedMax(t *testing.T) {
	p := DefaultPlatform()
	n := int64(units.GB)
	threads := p.Copier.effectiveThreads(n)
	acc := Sequential(threads)
	rt := p.Fast.ReadTime(n, acc)
	wt := p.Slow.WriteTime(n, acc)
	want := math.Max(rt, wt) + p.Copier.LaunchOverhead
	if got := p.Copier.CopyTime(p.Slow, p.Fast, n); math.Abs(got-want) > 1e-12 {
		t.Errorf("CopyTime = %v, want %v", got, want)
	}
	// DRAM -> NVRAM is write-bound: the copy should take at least the
	// NVRAM write time.
	if got := p.Copier.CopyTime(p.Slow, p.Fast, n); got < wt {
		t.Errorf("copy %v faster than NVRAM write %v", got, wt)
	}
}

func TestSmallCopiesUseFewerThreads(t *testing.T) {
	e := NewCopyEngine(&Clock{}, 28)
	if got := e.effectiveThreads(1 << 10); got != 1 {
		t.Errorf("1KiB copy used %d threads", got)
	}
	if got := e.effectiveThreads(8 << 20); got != 2 {
		t.Errorf("8MiB copy used %d threads, want 2", got)
	}
	if got := e.effectiveThreads(1 << 30); got != 28 {
		t.Errorf("1GiB copy used %d threads, want 28", got)
	}
}

func TestCopyBandwidthDecreasesWithParallelismToNVRAM(t *testing.T) {
	// Paper §V-d: DRAM->NVRAM copy bandwidth decreases with increasing
	// parallelism. Model: more threads past the NVRAM write peak lowers
	// effective bandwidth.
	clock := &Clock{}
	fast := NewDevice("dram", DRAM, units.GB, DRAMProfile())
	slow := NewDevice("nvram", NVRAM, units.GB, NVRAMProfile())
	few := NewCopyEngine(clock, 4)
	many := NewCopyEngine(clock, 28)
	n := int64(512 * units.MB)
	tFew := few.CopyTime(slow, fast, n)
	tMany := many.CopyTime(slow, fast, n)
	if tMany <= tFew {
		t.Errorf("28-thread copy (%v) should be slower than 4-thread (%v)", tMany, tFew)
	}
}

func TestCopyWithinDeviceOverlap(t *testing.T) {
	p, fast, _ := newBackedPair(1 << 12)
	copy(fast.Data(0, 8), "abcdefgh")
	p.Copier.Copy(fast, 2, fast, 0, 8)
	if got := string(fast.Data(2, 8)); got != "abcdefgh" {
		t.Errorf("overlapping copy = %q", got)
	}
}

func TestDefaultPlatformConfiguration(t *testing.T) {
	p := DefaultPlatform()
	if p.Fast.Capacity != 180*units.GB {
		t.Errorf("fast capacity = %v", units.Bytes(p.Fast.Capacity))
	}
	if p.Slow.Capacity != 1300*units.GB {
		t.Errorf("slow capacity = %v", units.Bytes(p.Slow.Capacity))
	}
	if p.Fast.Kind != DRAM || p.Slow.Kind != NVRAM {
		t.Error("device kinds wrong")
	}
	if p.Device(DRAM) != p.Fast || p.Device(NVRAM) != p.Slow {
		t.Error("Device() lookup wrong")
	}
	if p.Fast.Backed() || p.Slow.Backed() {
		t.Error("default platform should be unbacked")
	}
}

func TestReadWriteTimePositiveProperty(t *testing.T) {
	p := DefaultPlatform()
	f := func(kb uint16, threads uint8, granKB uint8) bool {
		n := int64(kb) * 1024
		a := Access{Threads: int(threads), Granularity: int64(granKB) * 1024}
		rt := p.Slow.ReadTime(n, a)
		wt := p.Slow.WriteTime(n, a)
		if n == 0 {
			return rt == 0 && wt == 0
		}
		return rt > 0 && wt > 0 && !math.IsInf(rt, 0) && !math.IsInf(wt, 0) &&
			!math.IsNaN(rt) && !math.IsNaN(wt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCopyTimeMonotoneInSizeProperty(t *testing.T) {
	p := DefaultPlatform()
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return p.Copier.CopyTime(p.Slow, p.Fast, x) <= p.Copier.CopyTime(p.Slow, p.Fast, y)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
