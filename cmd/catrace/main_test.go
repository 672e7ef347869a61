package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/models"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/tracing"
)

// syntheticTrace builds a hand-written event stream with known stall
// sites, movement history and fault activity, so the tables' aggregation
// and ordering can be asserted exactly.
func syntheticTrace() []tracing.Event {
	return []tracing.Event{
		{Kind: tracing.KindBind, Obj: 7, Op: "conv1.weight"},
		{Kind: tracing.KindBind, Obj: 9, Op: "fc.activations"},
		// Three stall sites: a dominant hint stall under conv1, a wait
		// on object 9, and an end-of-iteration drain.
		{Kind: tracing.KindStall, Op: "hint", KName: "conv1", Dur: 3.0},
		{Kind: tracing.KindStall, Op: "hint", KName: "conv1", Dur: 2.0},
		{Kind: tracing.KindStall, Op: "wait", KName: "fc", Obj: 9, Dur: 1.0},
		{Kind: tracing.KindStall, Op: "drain", Dur: 0.5},
		// Zero-duration stalls must not create rows.
		{Kind: tracing.KindStall, Op: "hint", KName: "conv2", Dur: 0},
		// Movement history: object 7 moved twice, object 9 once.
		{Kind: tracing.KindCopy, Obj: 7, Bytes: 4096, From: "fast", To: "slow", Cause: "archive"},
		{Kind: tracing.KindCopy, Obj: 7, Bytes: 4096, From: "slow", To: "fast", Cause: "willread"},
		{Kind: tracing.KindCopy, Obj: 9, Bytes: 1024, From: "fast", To: "slow", Cause: "evict"},
	}
}

// faultedTrace extends the synthetic stream with injector activity: two
// alloc-fail faults inside a willwrite hint window, the victim's retries,
// and the policy's fallback decision.
func faultedTrace() []tracing.Event {
	return append(syntheticTrace(),
		tracing.Event{Kind: tracing.KindFault, Op: "alloc-fail", Bytes: 4096, Cause: "willwrite"},
		tracing.Event{Kind: tracing.KindFault, Op: "alloc-fail", Bytes: 4096, Cause: "willwrite"},
		tracing.Event{Kind: tracing.KindFault, Op: "copy-error", Bytes: 2048, Cause: "archive"},
		tracing.Event{Kind: tracing.KindRetry, Op: "alloc-retry", Obj: 7, Dur: 50e-6, Cause: "willwrite"},
		tracing.Event{Kind: tracing.KindRetry, Op: "alloc-retry", Obj: 7, Dur: 100e-6, Cause: "willwrite"},
		tracing.Event{Kind: tracing.KindRetry, Op: "copy-retry", Obj: 9, Dur: 100e-6, Cause: "archive"},
		tracing.Event{Kind: tracing.KindDecision, Op: "fallback-slow", Bytes: 4096, Cause: "willwrite"},
		tracing.Event{Kind: tracing.KindDecision, Op: "fetch-failure", Obj: 9, Bytes: 1024, Cause: "willread"},
		// Ordinary policy decisions must stay out of the fault table.
		tracing.Event{Kind: tracing.KindDecision, Op: "evict", Obj: 9, Bytes: 1024, Cause: "willwrite"},
	)
}

func TestStallTableAggregatesAndRanks(t *testing.T) {
	events := syntheticTrace()
	names := tensorNames(events)
	if names[7] != "conv1.weight" || names[9] != "fc.activations" {
		t.Fatalf("tensorNames = %v", names)
	}

	var buf bytes.Buffer
	printStallTable(&buf, events, names, 6.5, 10)
	out := buf.String()

	if !strings.Contains(out, "top stall sites (of 3):") {
		t.Fatalf("zero-duration stall created a row:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header line, column line, then rows ranked by seconds descending:
	// hint/conv1 (5 s), wait/fc (1 s), drain (0.5 s).
	rows := lines[2:]
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d:\n%s", len(rows), out)
	}
	for i, want := range []string{"hint", "wait", "drain"} {
		if !strings.HasPrefix(strings.TrimSpace(rows[i]), want) {
			t.Fatalf("row %d = %q, want site %q", i, rows[i], want)
		}
	}
	// The hint row aggregates both conv1 stalls and owns 5/6.5 of the total.
	if !strings.Contains(rows[0], "conv1") || !strings.Contains(rows[0], "2") ||
		!strings.Contains(rows[0], "76.9%") {
		t.Fatalf("hint row misaggregated: %q", rows[0])
	}
	// The wait row is attributed to the blocking tensor by name.
	if !strings.Contains(rows[1], "fc.activations") {
		t.Fatalf("wait row lost its tensor attribution: %q", rows[1])
	}
	// The drain row renders the empty kernel as end-of-iteration.
	if !strings.Contains(rows[2], "(end of iteration)") {
		t.Fatalf("drain row = %q", rows[2])
	}
}

func TestStallTableHonorsTopN(t *testing.T) {
	events := syntheticTrace()
	var buf bytes.Buffer
	printStallTable(&buf, events, tensorNames(events), 6.5, 1)
	out := buf.String()
	if !strings.Contains(out, "top stall sites (of 3):") {
		t.Fatalf("truncation changed the site count:\n%s", out)
	}
	if strings.Contains(out, "wait") || strings.Contains(out, "drain") {
		t.Fatalf("-top 1 printed more than one row:\n%s", out)
	}
}

func TestStallTableEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	printStallTable(&buf, nil, nil, 0, 10)
	if !strings.Contains(buf.String(), "no movement stalls recorded") {
		t.Fatalf("empty trace output: %q", buf.String())
	}
}

// TestStallTableTiesAreDeterministic is the regression test for rows
// with equal stall seconds printing in map-iteration order: sites that
// tie on seconds rank by count, then op, kernel and tensor, on every run.
func TestStallTableTiesAreDeterministic(t *testing.T) {
	events := []tracing.Event{
		{Kind: tracing.KindBind, Obj: 1, Op: "a.weight"},
		{Kind: tracing.KindBind, Obj: 2, Op: "b.weight"},
		// Same seconds, more stalls: ranks first.
		{Kind: tracing.KindStall, Op: "hint", KName: "k9", Dur: 0.5},
		{Kind: tracing.KindStall, Op: "hint", KName: "k9", Dur: 0.5},
	}
	for _, k := range []string{"k3", "k1", "k2", "k0"} {
		events = append(events, tracing.Event{Kind: tracing.KindStall, Op: "hint", KName: k, Dur: 1})
	}
	events = append(events,
		tracing.Event{Kind: tracing.KindStall, Op: "wait", KName: "k1", Obj: 2, Dur: 1},
		tracing.Event{Kind: tracing.KindStall, Op: "wait", KName: "k1", Obj: 1, Dur: 1},
		tracing.Event{Kind: tracing.KindStall, Op: "drain", Dur: 1})
	names := tensorNames(events)

	var first bytes.Buffer
	printStallTable(&first, events, names, 10, 20)
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		printStallTable(&buf, events, names, 10, 20)
		if buf.String() != first.String() {
			t.Fatalf("print %d differs:\n%s\nfirst:\n%s", i, buf.String(), first.String())
		}
	}
	lines := strings.Split(strings.TrimSpace(first.String()), "\n")[2:]
	want := [][]string{
		{"hint", "k9"}, {"drain", "(end", "of", "iteration)"},
		{"hint", "k0"}, {"hint", "k1"}, {"hint", "k2"}, {"hint", "k3"},
		{"wait", "k1", "a.weight"}, {"wait", "k1", "b.weight"},
	}
	if len(lines) != len(want) {
		t.Fatalf("want %d rows, got %d:\n%s", len(want), len(lines), first.String())
	}
	for i, fields := range want {
		if got := strings.Fields(lines[i]); !slices.Equal(got[:len(fields)], fields) {
			t.Fatalf("row %d = %q, want it to start %q:\n%s", i, lines[i], fields, first.String())
		}
	}
}

func TestFaultTableAttributesDegradation(t *testing.T) {
	events := faultedTrace()
	var buf bytes.Buffer
	printFaultTable(&buf, events, tensorNames(events))
	out := buf.String()

	// Six distinct sites: 2 fault kinds, 2 retry kinds, 2 degradation
	// decisions — the plain "evict" decision must not appear.
	if !strings.Contains(out, "injected faults and degradation (6 sites):") {
		t.Fatalf("site count wrong:\n%s", out)
	}
	if strings.Contains(out, "evict\n") || strings.Contains(out, " evict ") {
		t.Fatalf("ordinary decision leaked into the fault table:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	rows := lines[2:]
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d:\n%s", len(rows), out)
	}
	// Class ordering: faults, then retries, then decisions; within a
	// class, higher counts first.
	wantPrefix := []string{"fault", "fault", "retry", "retry", "decision", "decision"}
	for i, want := range wantPrefix {
		if !strings.HasPrefix(strings.TrimSpace(rows[i]), want) {
			t.Fatalf("row %d = %q, want class %q", i, rows[i], want)
		}
	}
	// The double alloc-fail outranks the single copy-error.
	if !strings.Contains(rows[0], "alloc-fail") || !strings.Contains(rows[1], "copy-error") {
		t.Fatalf("fault rows misordered:\n%s", out)
	}
	// Each event is attributed to the hint window it fired in.
	if !strings.Contains(rows[0], "willwrite") || !strings.Contains(rows[1], "archive") {
		t.Fatalf("faults lost their hint attribution:\n%s", out)
	}
	// Retries name their victim tensors.
	if !strings.Contains(rows[2], "conv1.weight") || !strings.Contains(rows[3], "fc.activations") {
		t.Fatalf("retries lost their tensor attribution:\n%s", out)
	}
	// The policy's degradation decisions surface with their causes.
	if !strings.Contains(out, "fallback-slow") || !strings.Contains(out, "fetch-failure") {
		t.Fatalf("degradation decisions missing:\n%s", out)
	}
}

// writeTraceFile runs a small traced experiment and writes its JSONL
// export to a temp file, returning the path and raw bytes.
func writeTraceFile(t *testing.T) (string, []byte) {
	t.Helper()
	r, err := engine.RunCA(models.MLP(4096, []int{4096, 4096}, 1000, 16), policy.CALM,
		engine.Config{Iterations: 2, Trace: true,
			FastCapacity: 2 * 1 << 30, SlowCapacity: 16 * 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracing.WriteJSONL(&buf, r.Trace); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// TestCLISummarizesRealTrace drives the full command path on a genuine
// carun-style export.
func TestCLISummarizesRealTrace(t *testing.T) {
	path, _ := writeTraceFile(t)
	var stdout, stderr bytes.Buffer
	if code := cliMain([]string{path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"consistency verified", "movement", "stalls"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestCLIRejectsCorruptedTrace is the regression test for the malformed
// JSONL bug: a truncated or corrupted trace file must produce a clear
// line-numbered error and a nonzero exit, never a panic or a silently
// wrong summary.
func TestCLIRejectsCorruptedTrace(t *testing.T) {
	_, raw := writeTraceFile(t)
	dir := t.TempDir()
	corrupt := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	tests := []struct {
		name string
		path string
		want string // stderr substring
	}{
		// Cut at a comma so the last line is guaranteed mid-object.
		{"truncated mid-line", corrupt("trunc.jsonl",
			raw[:bytes.LastIndexByte(raw[:len(raw)*2/3], ',')]), "line"},
		{"null line injected", corrupt("null.jsonl",
			append([]byte("null\n"), raw...)), "line 1"},
		{"not a trace at all", corrupt("csv.jsonl", []byte("t,kind,dur\n0,stall,1\n")), "line 1"},
		{"empty file", corrupt("empty.jsonl", nil), "empty trace"},
		{"nonexistent file", filepath.Join(dir, "nope.jsonl"), "no such file"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := cliMain([]string{tc.path}, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("exit %d, want 1 (stdout: %s)", code, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q missing %q", stderr.String(), tc.want)
			}
		})
	}
	// Usage errors are distinct from data errors.
	var stdout, stderr bytes.Buffer
	if code := cliMain(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no-args exit = %d, want 2", code)
	}
}

func TestFaultTableOmittedForCleanTrace(t *testing.T) {
	var buf bytes.Buffer
	printFaultTable(&buf, syntheticTrace(), nil)
	if buf.Len() != 0 {
		t.Fatalf("fault-free trace produced a fault section: %q", buf.String())
	}
}

// TestFaultTableOnRealFaultedRun closes the loop end to end: a faulted
// engine run's trace, fed through the same printers the CLI uses, must
// surface retries and faults attributed to hint windows.
func TestFaultTableOnRealFaultedRun(t *testing.T) {
	r, err := engine.RunCA(models.ResNet(50, 512), policy.CALMP, engine.Config{
		Iterations: 2,
		Trace:      true,
		FaultSpec:  "seed=3;allocfail:fast:t0=0,p=0.3;copyerr:t0=0,p=0.2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Faults.Total() == 0 {
		t.Skip("schedule never fired at this scale")
	}
	var buf bytes.Buffer
	printFaultTable(&buf, r.Trace, tensorNames(r.Trace))
	out := buf.String()
	if !strings.Contains(out, "injected faults and degradation") {
		t.Fatalf("faulted run produced no fault section:\n%s", out)
	}
	if !strings.Contains(out, "fault") || !strings.Contains(out, "retry") {
		t.Fatalf("fault section missing classes:\n%s", out)
	}
}
