package invariants_test

import (
	"errors"
	"testing"

	"cachedarrays/internal/dm"
	"cachedarrays/internal/faults"
	"cachedarrays/internal/gcsim"
	"cachedarrays/internal/invariants"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/policy"
)

// fuzzPlatform builds a deliberately tiny two-tier platform (64 KiB fast,
// 256 KiB slow) so fuzzed hint sequences hit capacity pressure, forced
// evictions, GC triggers and defragmentation within a few dozen
// operations.
func fuzzPlatform() *memsim.Platform {
	clock := &memsim.Clock{}
	return &memsim.Platform{
		Clock:   clock,
		Fast:    memsim.NewDevice("fast", memsim.DRAM, 64<<10, memsim.DRAMProfile()),
		Slow:    memsim.NewDevice("slow", memsim.NVRAM, 256<<10, memsim.NVRAMProfile()),
		Copier:  memsim.NewCopyEngine(clock, 4),
		Compute: memsim.DefaultCompute(),
	}
}

// FuzzHintSequence drives the full runtime stack — policy over data
// manager over simulated devices, with an optional fuzzer-chosen fault
// schedule — through an arbitrary hint sequence, with the invariants
// checker attached to the clock as the oracle. Any state-machine
// violation, conservation failure, or panic at any clock advance is a
// finding.
func FuzzHintSequence(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{3, 10, 0x04, 1, 0x14, 2, 0x24, 3, 0x31, 0, 0x41, 1, 0x52, 2})
	f.Add([]byte{7, 200, 0x00, 255, 0x00, 254, 0x01, 0, 0x02, 1, 0x05, 0, 0x03, 2, 0x00, 9})
	f.Fuzz(runHintSequence)
}

// runHintSequence is the fuzz body, shared with the deterministic
// worst-case budget test.
func runHintSequence(t *testing.T, data []byte) {
	{
		if len(data) < 3 {
			return
		}
		p := fuzzPlatform()
		m := dm.New(p)

		// The first two bytes pick a fault schedule: deterministic, and
		// aggressive enough that retry/backoff and fallback paths run
		// under the oracle. A zero first byte runs fault-free.
		if data[0] != 0 {
			inj := faults.New(faults.Schedule{
				Seed: int64(data[0]),
				Episodes: []faults.Episode{
					{Kind: faults.AllocFail, Target: "fast", T0: 0, Prob: float64(data[1]) / 512},
					{Kind: faults.CopyError, T0: 0, Prob: float64(data[1]) / 1024},
					{Kind: faults.CopyStall, Target: "slow", T0: 0, Stall: 1e-6},
					{Kind: faults.Bandwidth, Target: "slow", T0: 1e-4, T1: 2e-4, Factor: 0.5},
					{Kind: faults.CapacityShrink, Target: "fast", T0: 3e-4, Bytes: 16 << 10},
				},
			}, p.Clock.Now)
			p.InjectFaults(inj)
			m.SetFaults(inj)
		}

		gc := gcsim.New(m, p.Clock)
		pol := policy.NewTieredConfig(m, policy.Config{
			LocalAlloc: true, FetchOnRead: true, FetchOnWrite: true,
			PreferCleanVictims: data[1]&1 == 1,
		}, "fuzz", gc)
		chk := invariants.New(m, p).WithPolicy(pol)
		p.Clock.Observe(chk)

		var objs []*dm.Object
		pick := func(arg byte) *dm.Object {
			if len(objs) == 0 {
				return nil
			}
			return objs[int(arg)%len(objs)]
		}
		drop := func(o *dm.Object) {
			for i, x := range objs {
				if x == o {
					objs = append(objs[:i], objs[i+1:]...)
					return
				}
			}
		}

		ops := data[2:]
		// Bound the work per input: every op can advance the clock several
		// times and every advance runs a full O(state) audit, so an
		// unbounded fuzzer-grown input could take minutes for no extra
		// state-space coverage.
		if len(ops) > 512 {
			ops = ops[:512]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 8 {
			case 0: // new object, 256 B .. ~25 KiB
				size := int64(arg)*97 + 256
				o, err := pol.NewObject(size)
				if err != nil {
					// Exhaustion and injected faults are expected
					// under pressure; anything else is a finding.
					if !errors.Is(err, dm.ErrExhausted) && !errors.Is(err, dm.ErrFaultInjected) {
						t.Fatalf("op %d: NewObject(%d): %v", i, size, err)
					}
					continue
				}
				objs = append(objs, o)
			case 1:
				if o := pick(arg); o != nil {
					pol.WillRead(o)
				}
			case 2:
				if o := pick(arg); o != nil {
					pol.WillWrite(o)
				}
			case 3:
				if o := pick(arg); o != nil {
					pol.WillUse(o)
				}
			case 4:
				if o := pick(arg); o != nil {
					pol.Archive(o)
				}
			case 5:
				if o := pick(arg); o != nil {
					pol.Retire(o)
					drop(o)
				}
			case 6: // pinned hint window: pin, touch, unpin
				if o := pick(arg); o != nil {
					pol.Pin(o)
					pol.WillWrite(o)
					pol.Unpin(o)
				}
			case 7:
				gc.Collect()
			}
			if err := chk.Err(); err != nil {
				t.Fatalf("op %d (%d,%d): %v", i, op, arg, err)
			}
		}

		// Final quiesce: collect the dead, then demand the full audit —
		// including no-leaked-regions and the policy's accounting.
		gc.Collect()
		if err := chk.Err(); err != nil {
			t.Fatal(err)
		}
		if err := chk.CheckQuiesced(); err != nil {
			t.Fatal(err)
		}
	}
}
