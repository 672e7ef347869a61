package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/tracing"
	"cachedarrays/internal/units"
)

func TestBuildModelNames(t *testing.T) {
	for _, name := range []string{"densenet264", "densenet121", "resnet200",
		"resnet50", "vgg416", "vgg116", "vgg16", "mlp", "RESNET50"} {
		m, err := buildModel(name, 4)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := buildModel("alexnet", 4); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestRunModeDispatch(t *testing.T) {
	m, err := buildModel("mlp", 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Iterations: 1,
		FastCapacity: 2 * units.GB, SlowCapacity: 16 * units.GB}
	for _, mode := range []string{"2LM:0", "2lm:m", "CA:0", "ca:l", "CA:LM",
		"CA:LMP", "os:page", "AutoTM", "plan"} {
		r, err := sched.RunMode(m, mode, cfg)
		if err != nil {
			t.Errorf("%s: %v", mode, err)
			continue
		}
		if r.IterTime <= 0 {
			t.Errorf("%s: zero iteration time", mode)
		}
	}
	if _, err := sched.RunMode(m, "NUMA", cfg); err == nil {
		t.Error("unknown mode accepted")
	}
}

// carun runs cliMain with small-model arguments prepended and returns
// the exit code plus captured stdout/stderr.
func carun(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	base := []string{"-model", "mlp", "-batch", "16", "-iters", "2",
		"-dram", "2GB", "-nvram", "16GB"}
	code := cliMain(append(base, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCLIRunsAndPrintsSummary(t *testing.T) {
	code, out, errOut := carun(t, "-mode", "CA:LMP", "-v", "-check")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"model       :", "mode        : CA:LMP",
		"iteration   :", "invariants  :", "per-iteration:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

func TestCLIExitCodes(t *testing.T) {
	// One tensor so large that rounding it to any allocator's alignment
	// overflows int64: every mode must refuse it, not wrap around.
	huge := filepath.Join(t.TempDir(), "huge.json")
	if err := os.WriteFile(huge, []byte(`{"name": "huge", "batchSize": 1,
		"tensors": [{"name": "a", "bytes": 9223372036854775800, "kind": "activation"}],
		"kernels": [{"name": "k", "flops": 1, "writes": [0]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		args []string
		code int
		err  string // substring expected on stderr
	}{
		{"bad flag", []string{"-nosuchflag"}, 2, "flag provided but not defined"},
		{"bad model", []string{"-model", "alexnet"}, 1, "unknown model"},
		{"bad mode", []string{"-mode", "NUMA"}, 1, "unknown mode"},
		{"bad dram", []string{"-dram", "lots"}, 1, ""},
		{"negative dram", []string{"-dram", "-1GB"}, 1, "negative"},
		{"zero batch", []string{"-batch", "0"}, 1, "-batch must be at least 1"},
		{"negative iters", []string{"-iters", "-3"}, 1, "iterations must not be negative"},
		{"negative metrics interval", []string{"-metrics", "x.csv", "-metrics-interval", "-1"}, 1, "metrics-interval"},
		{"faults on 2LM", []string{"-mode", "2LM:M", "-faults", "seed=1;allocfail:fast:t0=0,t1=100,p=1", "-check"}, 1, "mode 2LM:M injects no faults"},
		{"faults on OS:page", []string{"-mode", "os", "-faults", "seed=1;allocfail:fast:t0=0,p=1"}, 1, "mode OS:page injects no faults"},
		{"NaN fault factor", []string{"-mode", "CA:LM", "-faults", "seed=1;bw:nvram:t0=0,factor=NaN"}, 1, "factor outside (0,1]"},
		{"check on AutoTM", []string{"-mode", "plan", "-check"}, 1, "mode AutoTM audits nothing"},
		{"tensor larger than the heap", []string{"-workload", huge}, 1, "allocating a: alloc: out of memory"},
		{"trace on traceless mode", []string{"-mode", "2LM:0", "-trace", filepath.Join(t.TempDir(), "t.json")}, 1, "no trace"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := tc.args
			if tc.name != "bad model" {
				args = append([]string{"-model", "mlp", "-batch", "16", "-iters", "1",
					"-dram", "2GB", "-nvram", "16GB"}, args...)
			}
			code := cliMain(args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if tc.err != "" && !strings.Contains(stderr.String(), tc.err) {
				t.Errorf("stderr %q missing %q", stderr.String(), tc.err)
			}
			if tc.code == 1 && strings.Count(stderr.String(), "\n") != 1 {
				t.Errorf("run error is not one line:\n%s", stderr.String())
			}
		})
	}
}

// TestCLIHelpListsEveryMode pins the usage text to the engine's canonical
// mode list.
func TestCLIHelpListsEveryMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := cliMain([]string{"-h"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-h exit %d, want 2", code)
	}
	if want := strings.Join(engine.Modes, ", "); !strings.Contains(stderr.String(), want) {
		t.Errorf("usage does not list %q:\n%s", want, stderr.String())
	}
}

func TestCLITraceExport(t *testing.T) {
	dir := t.TempDir()

	jsonlPath := filepath.Join(dir, "trace.jsonl")
	code, _, errOut := carun(t, "-mode", "CA:LMP", "-trace", jsonlPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	f, err := os.Open(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := tracing.ReadJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := tracing.Verify(events); err != nil {
		t.Fatalf("written jsonl fails verification: %v", err)
	}

	chromePath := filepath.Join(dir, "trace.json")
	code, _, errOut = carun(t, "-mode", "CA:LMP", "-trace", chromePath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	raw, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
}

func TestCLIMetricsExport(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "run.csv")
	sumPath := filepath.Join(dir, "run.json")
	code, out, errOut := carun(t, "-mode", "CA:LM", "-metrics", csvPath, "-metrics-summary", sumPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "metrics     :") {
		t.Errorf("stdout missing metrics status line:\n%s", out)
	}

	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := metrics.ReadCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Times) == 0 || len(ts.Names) == 0 {
		t.Fatalf("empty metrics CSV: %d times, %d series", len(ts.Times), len(ts.Names))
	}

	sf, err := os.Open(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := metrics.ReadSummary(sf)
	sf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Meta["run"] != "mlp3-ca_lm" {
		t.Errorf("summary run meta = %q", sum.Meta["run"])
	}
	if _, ok := sum.Series["engine_iterations"]; !ok {
		t.Error("summary missing engine_iterations")
	}
	// A summary self-diff must be empty — the regression gate's baseline
	// property.
	if deltas := metrics.Diff(sum, sum, 0); len(deltas) != 0 {
		t.Errorf("self-diff produced %d deltas", len(deltas))
	}
}
