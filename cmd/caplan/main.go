// Command caplan is a capacity planner for heterogeneous memory: given a
// workload (a built-in model or a JSON trace), it sweeps DRAM budgets and
// operating modes and reports the cheapest configuration within a chosen
// slowdown tolerance of all-DRAM performance — the question a deployment
// engineer actually asks ("how much DRAM does this workload really need?").
//
// Examples:
//
//	caplan -model densenet264 -batch 504
//	caplan -workload mytrace.json -tolerance 1.25
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/models"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/units"
)

func main() {
	var (
		modelName = flag.String("model", "densenet264", "workload: densenet264, resnet200, vgg116, mlp, transformer")
		batch     = flag.Int("batch", 504, "batch size")
		workload  = flag.String("workload", "", "JSON trace file instead of -model")
		iters     = flag.Int("iters", 2, "iterations per evaluation point")
		tolerance = flag.Float64("tolerance", 1.15, "acceptable slowdown vs all-DRAM (e.g. 1.15 = 15%)")
		async     = flag.Bool("async", false, "plan assuming the asynchronous mover")
	)
	flag.Parse()

	var m *models.Model
	var err error
	if *workload != "" {
		f, ferr := os.Open(*workload)
		fatal(ferr)
		m, err = models.LoadJSON(f)
		f.Close()
		fatal(err)
	} else {
		m, err = buildModel(*modelName, *batch)
		fatal(err)
	}
	peak := m.PeakFootprint()
	fmt.Printf("workload %s: footprint %s\n", m.Name, units.Bytes(peak))

	// Reference: everything in DRAM.
	refCfg := engine.Config{Iterations: *iters, FastCapacity: peak + peak/8, AsyncMovement: *async}
	ref, err := engine.RunCA(m, policy.CALM, refCfg)
	fatal(err)
	fmt.Printf("all-DRAM reference: %s/iteration\n\n", units.Seconds(ref.IterTime))
	fmt.Printf("%-12s %-8s %-12s %-10s %s\n", "DRAM", "mode", "iter", "slowdown", "verdict")

	budgets := []int64{peak, peak * 3 / 4, peak / 2, peak / 3, peak / 4, peak / 8}
	var bestBudget int64 = -1
	var bestMode string
	for _, b := range budgets {
		for _, mode := range []policy.Mode{policy.CALM, policy.CALMP} {
			cfg := engine.Config{Iterations: *iters, FastCapacity: b, AsyncMovement: *async}
			r, err := engine.RunCA(m, mode, cfg)
			fatal(err)
			slow := r.IterTime / ref.IterTime
			verdict := ""
			if slow <= *tolerance {
				verdict = "ok"
				if bestBudget == -1 || b < bestBudget {
					bestBudget, bestMode = b, mode.String()
				}
			}
			fmt.Printf("%-12s %-8s %-12s %-10.2f %s\n",
				units.Bytes(b), mode, units.Seconds(r.IterTime), slow, verdict)
		}
	}
	fmt.Println()
	if bestBudget >= 0 {
		fmt.Printf("recommendation: %s of DRAM under %s stays within %.0f%% of all-DRAM speed\n",
			units.Bytes(bestBudget), bestMode, 100*(*tolerance-1))
		fmt.Printf("(that is %.0f%% of the %s footprint)\n",
			100*float64(bestBudget)/float64(peak), units.Bytes(peak))
	} else {
		fmt.Printf("no swept budget stays within %.2fx of all-DRAM; this workload wants its full footprint resident\n", *tolerance)
	}
}

func buildModel(name string, batch int) (*models.Model, error) {
	if batch < 1 {
		return nil, fmt.Errorf("-batch must be at least 1 (got %d)", batch)
	}
	switch strings.ToLower(name) {
	case "densenet264":
		return models.DenseNet(264, batch), nil
	case "resnet200":
		return models.ResNet(200, batch), nil
	case "vgg116":
		return models.VGG(116, batch), nil
	case "mlp":
		return models.MLP(4096, []int{4096, 4096}, 1000, batch), nil
	case "transformer":
		cfg := models.DefaultTransformerConfig()
		cfg.BatchSize = batch
		return models.Transformer(cfg), nil
	default:
		return nil, fmt.Errorf("unknown model %q", name)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "caplan:", err)
		os.Exit(1)
	}
}
