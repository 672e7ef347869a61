package faults

import (
	"math"
	"testing"

	"cachedarrays/internal/tracing"
)

func TestNilInjectorIsInert(t *testing.T) {
	var i *Injector
	if i.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
	if i.FailAlloc("fast", 1) || i.FailCopy() {
		t.Fatal("nil injector injected a failure")
	}
	if s := i.CopyStall("nvram"); s != 0 {
		t.Fatalf("nil injector stalled: %v", s)
	}
	if f := i.TimeScale("nvram"); f != 1 {
		t.Fatalf("nil injector throttled: %v", f)
	}
	if w := i.Withheld("fast"); w != 0 {
		t.Fatalf("nil injector withheld: %v", w)
	}
	i.NoteShrinkReject("fast", 1)
	i.SetTracer(nil)
	if st := i.Stats(); st != (Stats{}) {
		t.Fatalf("nil injector has stats: %+v", st)
	}
}

func TestEmptyScheduleNeverFires(t *testing.T) {
	now := 0.0
	i := New(Schedule{Seed: 7}, func() float64 { return now })
	for now = 0; now < 10; now += 0.5 {
		if i.FailAlloc("fast", 64) || i.FailCopy() || i.CopyStall("nvram") != 0 ||
			i.TimeScale("nvram") != 1 || i.Withheld("fast") != 0 {
			t.Fatalf("empty schedule fired at t=%v", now)
		}
	}
	if i.Stats().Total() != 0 {
		t.Fatalf("empty schedule has stats: %+v", i.Stats())
	}
}

func TestEpisodeWindowsAndTargets(t *testing.T) {
	now := 0.0
	i := New(Schedule{Episodes: []Episode{
		{Kind: AllocFail, Target: "fast", T0: 1, T1: 2},               // p=0 -> always
		{Kind: Bandwidth, Target: "nvram", T0: 1, T1: 2, Factor: 0.5}, // 2x time
		{Kind: CapacityShrink, Target: "fast", T0: 3, Bytes: 1 << 20}, // open-ended
		{Kind: CopyStall, Target: "nvram", T0: 1, T1: 2, Stall: 0.25},
	}}, func() float64 { return now })

	// Before any window.
	if i.FailAlloc("fast", 1) || i.TimeScale("nvram") != 1 || i.Withheld("fast") != 0 {
		t.Fatal("fired before window")
	}
	// Inside the [1,2) windows.
	now = 1.5
	if !i.FailAlloc("fast", 1) {
		t.Fatal("allocfail did not fire in window")
	}
	if i.FailAlloc("slow", 1) {
		t.Fatal("allocfail fired on the wrong tier")
	}
	if got := i.TimeScale("nvram"); got != 2 {
		t.Fatalf("TimeScale = %v, want 2", got)
	}
	if got := i.TimeScale("dram"); got != 1 {
		t.Fatalf("untargeted device throttled: %v", got)
	}
	if got := i.CopyStall("nvram"); got != 0.25 {
		t.Fatalf("CopyStall = %v, want 0.25", got)
	}
	// Past the bounded windows, inside the open-ended shrink.
	now = 5
	if i.FailAlloc("fast", 1) || i.TimeScale("nvram") != 1 {
		t.Fatal("bounded episode fired after t1")
	}
	if got := i.Withheld("fast"); got != 1<<20 {
		t.Fatalf("Withheld = %v, want %v", got, 1<<20)
	}
	if got := i.Withheld("slow"); got != 0 {
		t.Fatalf("shrink leaked to wrong tier: %v", got)
	}

	st := i.Stats()
	if st.AllocFailures != 1 || st.CopyStalls != 1 || st.StallSeconds != 0.25 || st.ThrottleHits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSeededProbabilityIsDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		now := 0.0
		i := New(Schedule{Seed: seed, Episodes: []Episode{
			{Kind: AllocFail, T0: 0, Prob: 0.5},
		}}, func() float64 { return now })
		out := make([]bool, 200)
		for k := range out {
			out[k] = i.FailAlloc("fast", 1)
		}
		return out
	}
	a, b := run(42), run(42)
	fails := 0
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("same seed diverged at draw %d", k)
		}
		if a[k] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("p=0.5 produced %d/%d failures", fails, len(a))
	}
	c := run(43)
	same := true
	for k := range a {
		if a[k] != c[k] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestContinuousFaultsAnnounceOncePerEpisode(t *testing.T) {
	now := 1.0
	i := New(Schedule{Episodes: []Episode{
		{Kind: Bandwidth, Target: "nvram", T0: 0, Factor: 0.25},
		{Kind: CapacityShrink, Target: "fast", T0: 0, Bytes: 4096},
	}}, func() float64 { return now })
	tr := tracing.New(func() float64 { return now })
	i.SetTracer(tr)
	for k := 0; k < 5; k++ {
		i.TimeScale("nvram")
		i.Withheld("fast")
		i.NoteShrinkReject("fast", 64)
	}
	faults := 0
	for _, e := range tr.Events() {
		if e.Kind == tracing.KindFault {
			faults++
		}
	}
	if faults != 2 {
		t.Fatalf("continuous faults emitted %d events, want 2 (one per episode)", faults)
	}
	if i.Stats().ShrinkRejects != 5 || i.Stats().ThrottleHits != 5 {
		t.Fatalf("stats: %+v", i.Stats())
	}
}

func TestParse(t *testing.T) {
	s, err := Parse("seed=42; allocfail:fast:t0=0.2,t1=600ms,p=0.5; copyerr:t0=0,p=0.25; copystall:nvram:t0=1s,stall=2ms; bw:nvram:t0=100ms,t1=200ms,factor=0.1; shrink:fast:t0=3,bytes=8GB")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 || len(s.Episodes) != 5 {
		t.Fatalf("seed=%d episodes=%d", s.Seed, len(s.Episodes))
	}
	e := s.Episodes[0]
	if e.Kind != AllocFail || e.Target != "fast" || e.T0 != 0.2 || math.Abs(e.T1-0.6) > 1e-12 || e.Prob != 0.5 {
		t.Fatalf("allocfail parsed wrong: %+v", e)
	}
	if e := s.Episodes[1]; e.Kind != CopyError || e.Target != "" || e.T1 != 0 {
		t.Fatalf("copyerr parsed wrong: %+v", e)
	}
	if e := s.Episodes[2]; e.Kind != CopyStall || e.Stall != 2e-3 {
		t.Fatalf("copystall parsed wrong: %+v", e)
	}
	if e := s.Episodes[3]; e.Kind != Bandwidth || e.Factor != 0.1 {
		t.Fatalf("bw parsed wrong: %+v", e)
	}
	if e := s.Episodes[4]; e.Kind != CapacityShrink || e.Bytes != 8_000_000_000 {
		t.Fatalf("shrink parsed wrong: %+v", e)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"seed=x",
		"quake:fast:t0=0",
		"allocfail:fast:t0",
		"allocfail:fast:extra:t0=0",
		"allocfail:fast:t0=1,t1=1",
		"allocfail:fast:p=2",
		"bw:nvram:t0=0",
		"bw:nvram:t0=0,factor=3",
		"shrink:fast:t0=0",
		"copystall:t0=0",
		"allocfail:fast:t0=-1",
		"allocfail:fast:zzz=1",
		// Non-finite values pass a range check written as two
		// comparisons; each parameter rejects them.
		"allocfail:fast:t0=NaN,p=0.5",
		"allocfail:fast:t0=Inf",
		"allocfail:fast:t0=0,t1=NaN",
		"allocfail:fast:t0=0,t1=+Inf",
		"copystall:nvram:t0=0,stall=NaN",
		"copystall:nvram:t0=0,stall=Inf",
		"allocfail:fast:t0=0,p=NaN",
		"allocfail:fast:t0=0,p=-Inf",
		"bw:nvram:t0=0,factor=NaN",
		"bw:nvram:t0=0,factor=Inf",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
	// Empty specs are empty schedules, not errors.
	if s, err := Parse(" ; "); err != nil || len(s.Episodes) != 0 {
		t.Fatalf("empty spec: %v %+v", err, s)
	}
}

// FuzzFaultSpec feeds arbitrary specs to Parse. It must never panic, and
// every schedule it accepts must be one the injector can run: finite,
// non-negative times, a probability in [0,1], a bandwidth factor in
// (0,1] and a positive shrink size. Malformed values are what slipped
// through before, not crashes.
func FuzzFaultSpec(f *testing.F) {
	f.Add("seed=42;allocfail:fast:t0=0.2,t1=0.6,p=0.5;bw:nvram:t0=1s,t1=2s,factor=0.1;shrink:fast:t0=3s,bytes=20GB")
	f.Add("seed=1;bw:nvram:t0=0,factor=NaN")
	f.Add("copystall:nvram:t0=0,stall=Inf")
	f.Add("allocfail:fast:t0=NaN,p=0.5")
	f.Add("allocfail:fast:t0=0,p=NaN")
	f.Add("allocfail:fast:t0=0,t1=+Inf")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) && x >= 0 }
		for _, e := range s.Episodes {
			switch {
			case !finite(e.T0) || !finite(e.T1) || !finite(e.Stall):
				t.Fatalf("%q: accepted non-finite or negative times %+v", spec, e)
			case !(e.Prob >= 0 && e.Prob <= 1):
				t.Fatalf("%q: accepted probability %v", spec, e.Prob)
			case !(e.Factor > 0 && e.Factor <= 1) && (e.Kind == Bandwidth || e.Factor != 0):
				t.Fatalf("%q: accepted factor %v", spec, e.Factor)
			case e.Kind == CapacityShrink && e.Bytes <= 0:
				t.Fatalf("%q: accepted shrink of %d bytes", spec, e.Bytes)
			}
		}
	})
}
