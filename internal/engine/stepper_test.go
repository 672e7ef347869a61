package engine

import (
	"crypto/sha256"
	"reflect"
	"strings"
	"testing"

	"cachedarrays/internal/models"
	"cachedarrays/internal/pagemig"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/units"
)

// runEntry is the exported Run* entry point matching a canonical mode.
func runEntry(m *models.Model, mode string, cfg Config) (*Result, error) {
	switch mode {
	case "2LM:0", "2LM:M":
		return Run2LM(m, mode == "2LM:M", cfg)
	case "CA:0":
		return RunCA(m, policy.CAZero, cfg)
	case "CA:L":
		return RunCA(m, policy.CAL, cfg)
	case "CA:LM":
		return RunCA(m, policy.CALM, cfg)
	case "CA:LMP":
		return RunCA(m, policy.CALMP, cfg)
	case "OS:page":
		return RunPageMig(m, pagemig.DefaultConfig(), cfg)
	case "AutoTM":
		return RunPlanned(m, nil, cfg)
	default:
		return RunCAAdaptive(m, mode, cfg)
	}
}

// modelDigest is the SHA-256 of the model's WriteDigest stream: every
// field of the graph.
func modelDigest(t *testing.T, m *models.Model) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := m.WriteDigest(h); err != nil {
		t.Fatal(err)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestStepperProtocol drives every canonical mode by hand and checks the
// Stepper contract the cluster dispatcher relies on: Step returns the
// platform clock and never goes back, the three misuse guards fire, the
// heap is sampled in every mode, and a driven stepper is the Run* result.
// Every mode runs on the one model and must leave it as it found it: a
// built model is read-only, which is what lets a driver's cells share one.
func TestStepperProtocol(t *testing.T) {
	m := models.ResNet(50, 32)
	pristine := modelDigest(t, m)
	cfg := Config{Iterations: 2, CheckInvariants: true, SampleHeap: true,
		FastCapacity: 2 * units.GB, SlowCapacity: 32 * units.GB}
	if len(Modes) != 11 {
		t.Fatalf("%d canonical modes, want 11", len(Modes))
	}
	for _, mode := range Modes {
		t.Run(mode, func(t *testing.T) {
			st, err := NewStepper(m, mode, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Finish(); err == nil {
				t.Error("Finish before Done succeeded")
			}
			clock := st.(*run).p.Clock
			last, steps := clock.Now(), 0
			for !st.Done() {
				now, err := st.Step()
				if err != nil {
					t.Fatal(err)
				}
				if now != clock.Now() || now < last {
					t.Fatalf("step %d returned %g: clock %g, previous %g", steps, now, clock.Now(), last)
				}
				last = now
				steps++
			}
			if want := cfg.Iterations * (len(m.Kernels) + 1); steps != want {
				t.Errorf("%d steps, want %d", steps, want)
			}
			if _, err := st.Step(); err == nil {
				t.Error("Step after Done succeeded")
			}
			got, err := st.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Finish(); err == nil {
				t.Error("second Finish succeeded")
			}
			if len(got.HeapSamples) != len(m.Kernels) {
				t.Errorf("%d heap samples, want one per kernel (%d)", len(got.HeapSamples), len(m.Kernels))
			}
			want, err := runEntry(m, mode, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("hand-driven stepper differs from the Run* entry point")
			}
			if modelDigest(t, m) != pristine {
				t.Fatal("the run wrote to its model")
			}
		})
	}
}

// TestStepperRejectsNegativeIterations: a negative iteration count (zero
// means the paper default) has no run to mean, so every mode refuses it
// at construction instead of finishing with no measured iterations.
func TestStepperRejectsNegativeIterations(t *testing.T) {
	m := models.MLP(256, []int{256}, 16, 8)
	for _, mode := range Modes {
		st, err := NewStepper(m, mode, Config{Iterations: -1}, nil)
		if err == nil || !strings.Contains(err.Error(), "iterations must not be negative") {
			t.Errorf("%s: NewStepper = %v, %v; want the negative-iterations error", mode, st, err)
		}
	}
}
