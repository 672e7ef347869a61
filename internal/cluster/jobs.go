package cluster

import (
	"fmt"
	"math/rand"

	"cachedarrays/internal/models"
)

// MixModes are the operating modes the seeded job-mix generator draws
// from: every canonical mode that runs on a shared platform (all of them —
// tracing and fault injection are per-run config, not modes).
var MixModes = []string{
	"CA:LMP", "CA:LM", "CA:L", "CA:0", "CA:TG", "CA:OG",
	"2LM:M", "2LM:0", "OS:page", "AutoTM",
}

// Mix generates a deterministic, seeded synthetic job mix: n MLP training
// jobs with varied shapes, modes and arrival times. Identical seeds
// produce identical mixes — the determinism suite and the cacluster
// command both key their scenarios on the seed.
func Mix(seed int64, n int) []Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]Job, n)
	for i := range jobs {
		in := 256 << rng.Intn(3)     // 256 / 512 / 1024 features
		hidden := 512 << rng.Intn(3) // 512 / 1024 / 2048 wide
		layers := 1 + rng.Intn(3)    // 1-3 hidden layers
		batch := 16 << rng.Intn(3)   // 16 / 32 / 64
		mode := MixModes[rng.Intn(len(MixModes))]
		arrival := rng.Float64() * 0.02
		hs := make([]int, layers)
		for l := range hs {
			hs[l] = hidden
		}
		jobs[i] = Job{
			Name:    fmt.Sprintf("mix%d-%s", i, mode),
			Build:   func() (*models.Model, error) { return models.MLP(in, hs, 10, batch), nil },
			Mode:    mode,
			Arrival: arrival,
		}
	}
	return jobs
}

// BenchMix generates the fleet-scale benchmark's job mix: n deliberately
// tiny MLP jobs (one short hidden layer, small batches) whose individual
// simulations are cheap enough that dispatch overhead — what the
// cluster_fleet workload of go run ./bench measures — is a visible
// fraction of the run at N=128 tenants. Sizes, modes and arrivals are
// drawn from the seeded source exactly like Mix; arrival offsets cluster
// in a narrow window so timestamp ties and near-ties (the heap's worst
// case) are common.
// Deterministic per seed.
func BenchMix(seed int64, n int) []Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]Job, n)
	for i := range jobs {
		in := 128 << rng.Intn(2)     // 128 / 256 features
		hidden := 256 << rng.Intn(2) // 256 / 512 wide
		batch := 16 << rng.Intn(2)   // 16 / 32
		mode := MixModes[rng.Intn(len(MixModes))]
		arrival := float64(rng.Intn(4)) * 0.001 // 4 shared arrival slots: ties abound
		jobs[i] = Job{
			Name:    fmt.Sprintf("bench%d-%s", i, mode),
			Build:   func() (*models.Model, error) { return models.MLP(in, []int{hidden}, 10, batch), nil },
			Mode:    mode,
			Arrival: arrival,
		}
	}
	return jobs
}
