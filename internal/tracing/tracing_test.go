package tracing

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestNilRecorderIsSafe exercises every method on a nil receiver — the
// contract that lets the hot paths stay instrumented with tracing off.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder claims enabled")
	}
	r.BeginIter(0)
	r.BeginKernel(1, "k")
	r.EndKernel()
	r.SetHint("will_read")
	if r.Hint() != "" {
		t.Fatal("nil recorder has a hint")
	}
	r.OnAdvance(1, 1)
	r.Xfer("dram", "nvram", 64, 0, 1, 4, 2, 1, 0.5)
	r.Copy(1, 64, "fast", "slow", 0, 1)
	r.DM(KindAlloc, 1, 64, "", "fast")
	r.Decision("evict", 1, 64)
	r.Kernel(0, 1, 0.5)
	r.KernelIO("dram", 64, 64)
	r.Stall("hint", 0, 0.1)
	r.Bind(1, "conv1.weights", 64)
	r.GC(0, 1, 2, 128)
	r.Iter(0, 0, 1)
	r.EmitTotals(Totals{})
	if r.Events() != nil {
		t.Fatal("nil recorder recorded events")
	}
}

// TestRecorderStampsContext checks iteration/kernel/hint context lands on
// emitted events.
func TestRecorderStampsContext(t *testing.T) {
	now := 3.5
	r := New(func() float64 { return now })
	r.DM(KindAlloc, 1, 64, "", "fast")
	r.BeginIter(2)
	r.BeginKernel(7, "conv3")
	r.SetHint("will_write")
	r.Copy(9, 128, "slow", "fast", 3.0, 3.5)
	r.SetHint("")
	r.EndKernel()
	r.Decision("defrag", 0, 64)

	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events", len(ev))
	}
	if ev[0].Iter != -1 || ev[0].Kernel != -1 || ev[0].T0 != now {
		t.Errorf("pre-run event context wrong: %+v", ev[0])
	}
	if ev[1].Iter != 2 || ev[1].Kernel != 7 || ev[1].KName != "conv3" || ev[1].Cause != "will_write" {
		t.Errorf("in-kernel event context wrong: %+v", ev[1])
	}
	if ev[2].Kernel != -1 || ev[2].KName != "" || ev[2].Cause != "" {
		t.Errorf("post-kernel event context wrong: %+v", ev[2])
	}
}

// traceFixture builds a small hand-made trace whose totals are consistent.
func traceFixture() []Event {
	r := New(func() float64 { return 0 })
	r.BeginIter(0)
	r.BeginKernel(0, "k0")
	// An eviction: object copy fast->slow backed by a dram->nvram xfer.
	r.Xfer("dram", "nvram", 100, 0, 1, 4, 2, 0, 0)
	r.Copy(1, 100, "fast", "slow", 0, 1)
	r.Stall("hint", 0, 1.0)
	// The kernel reads 40 from dram, writes 10 to nvram.
	r.Kernel(1, 2, 0.7)
	r.KernelIO("dram", 40, 0)
	r.KernelIO("nvram", 0, 10)
	r.EndKernel()
	r.BeginIter(1)
	// A prefetch back: nvram->dram.
	r.Xfer("nvram", "dram", 100, 2, 3, 4, 4, 0, 0)
	r.Copy(1, 100, "slow", "fast", 2, 3)
	r.Stall("wait", 1, 0.25)
	r.Stall("drain", 0, 0.5)
	r.EmitTotals(Totals{
		Copies:          2,
		BytesFastToSlow: 100,
		BytesSlowToFast: 100,
		FastDevice:      "dram",
		SlowDevice:      "nvram",
		FastReadBytes:   140, // xfer 100 + kernel 40
		FastWriteBytes:  100, // prefetch xfer
		SlowReadBytes:   100, // prefetch xfer
		SlowWriteBytes:  110, // xfer 100 + kernel 10
		MoveTimeByIter:  []float64{1.0, 0.25 + 0.5},
	})
	return r.Events()
}

func TestVerifyAcceptsConsistentTrace(t *testing.T) {
	if err := Verify(traceFixture()); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyCatchesTampering flips each aggregate in turn and checks Verify
// reports a mismatch — the consistency check has no blind spots among its
// checked quantities.
func TestVerifyCatchesTampering(t *testing.T) {
	tamper := map[string]func(*Totals){
		"copies":        func(tt *Totals) { tt.Copies++ },
		"fast to slow":  func(tt *Totals) { tt.BytesFastToSlow += 1 },
		"slow to fast":  func(tt *Totals) { tt.BytesSlowToFast += 1 },
		"within fast":   func(tt *Totals) { tt.BytesWithinFast += 1 },
		"within slow":   func(tt *Totals) { tt.BytesWithinSlow += 1 },
		"defrag":        func(tt *Totals) { tt.DefragMoves++ },
		"fast reads":    func(tt *Totals) { tt.FastReadBytes++ },
		"fast writes":   func(tt *Totals) { tt.FastWriteBytes++ },
		"slow reads":    func(tt *Totals) { tt.SlowReadBytes++ },
		"slow writes":   func(tt *Totals) { tt.SlowWriteBytes++ },
		"stall seconds": func(tt *Totals) { tt.MoveTimeByIter[0] += 1e-9 },
	}
	for name, f := range tamper {
		events := traceFixture()
		tt := *FindTotals(events)
		tt.MoveTimeByIter = append([]float64(nil), tt.MoveTimeByIter...)
		f(&tt)
		events[len(events)-1].Totals = &tt
		if err := Verify(events); err == nil {
			t.Errorf("%s: tampered trace verified clean", name)
		}
	}
}

func TestVerifyRequiresTotals(t *testing.T) {
	events := traceFixture()
	if err := Verify(events[:len(events)-1]); err == nil ||
		!strings.Contains(err.Error(), "no totals") {
		t.Fatalf("missing-totals error wrong: %v", err)
	}
}

// TestJSONLRoundTrip checks the JSONL export survives a write/read cycle
// losslessly — including the trailing totals, so a loaded file can be
// re-verified.
func TestJSONLRoundTrip(t *testing.T) {
	events := traceFixture()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatalf("round trip diverged:\n want %+v\n got  %+v", events, got)
	}
	if err := Verify(got); err != nil {
		t.Fatalf("re-loaded trace fails verification: %v", err)
	}
}

// TestReadJSONLRejectsMalformedInput checks the reader fails loudly, with
// the offending line number, on every corruption class a truncated or
// hand-edited trace file can exhibit — instead of skipping lines or
// silently decoding null into a zero event.
func TestReadJSONLRejectsMalformedInput(t *testing.T) {
	var good bytes.Buffer
	if err := WriteJSONL(&good, traceFixture()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(good.String(), "\n"), "\n")
	tests := []struct {
		name  string
		input string
		want  string // error substring
	}{
		{"truncated mid-object", lines[0] + "\n" + lines[1][:len(lines[1])/2] + "\n", "line 2"},
		{"null line", lines[0] + "\nnull\n", "line 2"},
		{"non-JSON garbage", "kind,t0,dur\n" + lines[0] + "\n", "line 1"},
		{"trailing garbage", lines[0] + " extra\n", "line 1"},
		{"bad field type", `{"kind":"stall","t0":"not-a-number"}` + "\n", "line 1"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadJSONL(strings.NewReader(tc.input))
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
	// Blank lines between events are tolerated (hand-concatenated files).
	withBlank := lines[0] + "\n\n" + strings.Join(lines[1:], "\n") + "\n"
	events, err := ReadJSONL(strings.NewReader(withBlank))
	if err != nil {
		t.Fatalf("blank line rejected: %v", err)
	}
	if len(events) != len(lines) {
		t.Errorf("got %d events, want %d", len(events), len(lines))
	}
}

// TestChromeExportIsValidJSON checks the Chrome export parses and contains
// the expected track structure.
func TestChromeExportIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, traceFixture()); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	var kernels, xfers, stalls int
	for _, e := range file.TraceEvents {
		if e.Ph == "X" && e.Dur < 0 {
			t.Errorf("negative duration on %q", e.Name)
		}
		switch {
		case e.Pid == pidCompute && e.Name == "k0":
			kernels++
		case e.Pid == pidPlatform && strings.HasPrefix(e.Name, "copy "):
			xfers++
		case strings.HasPrefix(e.Name, "stall:"):
			stalls++
		}
	}
	if kernels != 1 || xfers != 2 || stalls != 3 {
		t.Errorf("track content wrong: kernels=%d xfers=%d stalls=%d", kernels, xfers, stalls)
	}
}

// TestSummarizeStallOrder pins that per-iteration stall sums accumulate in
// event order (the exactness contract with the engine).
func TestSummarizeStallOrder(t *testing.T) {
	s := Summarize(traceFixture())
	if len(s.StallByIter) != 2 {
		t.Fatalf("stall iters = %d", len(s.StallByIter))
	}
	if s.StallByIter[0] != 1.0 || s.StallByIter[1] != 0.25+0.5 {
		t.Fatalf("stall sums = %v", s.StallByIter)
	}
	if s.StallSeconds != 1.0+0.25+0.5 {
		t.Fatalf("total stall = %v", s.StallSeconds)
	}
}
