package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/sched"
)

// Placement policies the router accepts.
const (
	// RoundRobin deals jobs to platforms in arrival order.
	RoundRobin = "round-robin"
	// LeastLoaded places each job on the platform with the least
	// accumulated compute demand (total FLOPs of the jobs placed so far).
	LeastLoaded = "least-loaded"
	// Headroom places each job on the platform with the most remaining
	// fast-tier headroom (fast capacity minus the peak footprints already
	// placed) — the placement that keeps hot working sets in DRAM.
	Headroom = "headroom"
	// RejectOnPressure is LeastLoaded with admission control: a job whose
	// peak footprint would push the platform's total placed footprint past
	// its combined fast+slow capacity is rejected instead of queued into
	// certain thrashing.
	RejectOnPressure = "reject-on-pressure"
)

// Policies lists the router's placement policies.
var Policies = []string{RoundRobin, LeastLoaded, Headroom, RejectOnPressure}

// RouterConfig parameterizes a multi-platform run.
type RouterConfig struct {
	// Platforms describes each platform (one cluster simulation per
	// entry); capacities may differ — the headroom policy exploits that.
	Platforms []engine.Config
	// Jobs are routed across the platforms.
	Jobs []Job
	// Policy selects the placement policy (default LeastLoaded).
	Policy string
	// Workers bounds how many platform simulations run concurrently
	// (<=1 serial). Each platform simulation is single-threaded and
	// results are indexed by platform, so the worker count never changes
	// any byte of the result.
	Workers int
	// Baselines is passed through to every platform's cluster run (the
	// scheduler is safe for concurrent use, and with a cache its table
	// dedups solo runs shared across platforms).
	Baselines *sched.Scheduler
	// Sched is passed through to every platform's cluster run: each
	// platform's whole result is memoized under its own cluster key, so
	// a repeated sweep re-serves every platform from the cache and two
	// platforms given identical (config, job list) pairs — within one
	// routed run or across runs — simulate once.
	Sched *sched.Scheduler
	// Metrics, when non-nil, receives the router's placement series:
	// per-platform placed-job counters and demand gauges plus the
	// rejection counter. The registry is flushed once after placement —
	// routing is a pre-pass in real time, not virtual time.
	Metrics *metrics.Registry
}

// RouterResult is a routed run's outcome.
type RouterResult struct {
	// Placement maps job index to platform index, -1 for rejected jobs.
	Placement []int
	// Rejected lists the rejected jobs' indices in job order.
	Rejected []int
	// Platforms holds each platform's cluster result; nil for a platform
	// no job was placed on.
	Platforms []*Result
}

// Route places every job on a platform (or rejects it), then runs each
// platform's cluster simulation. Placement is a deterministic pre-pass
// over the jobs in (arrival, index) order using model-derived demand
// estimates, so routing decisions never depend on simulation outcomes —
// which is what lets the M platform simulations run in parallel and still
// produce byte-identical results at any worker count.
func Route(cfg RouterConfig) (*RouterResult, error) {
	if len(cfg.Platforms) == 0 {
		return nil, errors.New("cluster: router has no platforms")
	}
	if len(cfg.Jobs) == 0 {
		return nil, errors.New("cluster: router has no jobs")
	}
	policy := cfg.Policy
	if policy == "" {
		policy = LeastLoaded
	}
	// Resolve every job's model up front: the placement pre-pass needs
	// demand estimates before any platform exists.
	jobs := make([]Job, len(cfg.Jobs))
	copy(jobs, cfg.Jobs)
	for i := range jobs {
		if jobs[i].Model != nil {
			continue
		}
		if jobs[i].Build == nil {
			return nil, fmt.Errorf("cluster: job %d has neither Model nor Build", i)
		}
		m, err := jobs[i].Build()
		if err != nil {
			return nil, fmt.Errorf("cluster: job %d: %w", i, err)
		}
		if m == nil {
			return nil, fmt.Errorf("cluster: job %d: Build returned a nil model", i)
		}
		jobs[i].Model = m
	}

	res := &RouterResult{
		Placement: make([]int, len(jobs)),
		Platforms: make([]*Result, len(cfg.Platforms)),
	}
	if err := place(res, jobs, cfg.Platforms, policy); err != nil {
		return nil, err
	}
	registerRouterSeries(cfg.Metrics, res, jobs, len(cfg.Platforms), policy)

	// Group placed jobs per platform, preserving original job order.
	perPlatform := make([][]Job, len(cfg.Platforms))
	for ji, pi := range res.Placement {
		if pi >= 0 {
			perPlatform[pi] = append(perPlatform[pi], jobs[ji])
		}
	}

	// Run the platforms: independent single-threaded simulations on a
	// bounded worker pool. Workers claim platform indices from a shared
	// atomic counter — no feeder goroutine, no channel per run — and each
	// writes only its own result and error slot, so the fan-out needs no
	// lock at all. Every failed platform's error is kept (indexed by
	// platform) and the joined error names each one, not just the first.
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(cfg.Platforms) {
		workers = len(cfg.Platforms)
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	errs := make([]error, len(cfg.Platforms))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				pi := int(next.Add(1)) - 1
				if pi >= len(cfg.Platforms) {
					return
				}
				if len(perPlatform[pi]) == 0 {
					continue
				}
				r, err := Run(Config{
					Engine:    cfg.Platforms[pi],
					Jobs:      perPlatform[pi],
					Baselines: cfg.Baselines,
					Sched:     cfg.Sched,
				})
				if err != nil {
					errs[pi] = fmt.Errorf("cluster: platform %d: %w", pi, err)
					continue
				}
				res.Platforms[pi] = r
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return res, nil
}

// place fills res.Placement and res.Rejected: a deterministic greedy pass
// over the jobs sorted by (arrival, original index), charging each
// platform with the placed jobs' model-derived demand.
func place(res *RouterResult, jobs []Job, platforms []engine.Config, policy string) error {
	fastCap := make([]int64, len(platforms))
	totalCap := make([]int64, len(platforms))
	for pi, pc := range platforms {
		c := pc.Canonical()
		fastCap[pi] = capBytes(c.FastCapacity)
		totalCap[pi] = capBytes(c.FastCapacity) + capBytes(c.SlowCapacity)
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if jobs[order[a]].Arrival != jobs[order[b]].Arrival {
			return jobs[order[a]].Arrival < jobs[order[b]].Arrival
		}
		return order[a] < order[b]
	})

	load := make([]float64, len(platforms)) // accumulated FLOPs
	foot := make([]int64, len(platforms))   // accumulated peak footprints
	rr := 0
	for _, ji := range order {
		demandF := jobs[ji].Model.TotalFLOPs()
		demandB := jobs[ji].Model.PeakFootprint()
		pi := -1
		switch policy {
		case RoundRobin:
			pi = rr % len(platforms)
			rr++
		case LeastLoaded:
			pi = argminLoad(load)
		case Headroom:
			pi = 0
			for c := 1; c < len(platforms); c++ {
				if fastCap[c]-foot[c] > fastCap[pi]-foot[pi] {
					pi = c
				}
			}
		case RejectOnPressure:
			pi = argminLoad(load)
			if foot[pi]+demandB > totalCap[pi] {
				pi = -1
			}
		default:
			return fmt.Errorf("cluster: unknown placement policy %q (%v)", policy, Policies)
		}
		res.Placement[ji] = pi
		if pi < 0 {
			res.Rejected = append(res.Rejected, ji)
			continue
		}
		load[pi] += demandF
		foot[pi] += demandB
	}
	sort.Ints(res.Rejected)
	return nil
}

// registerRouterSeries records the placement outcome as metric series and
// takes one sample: per-platform placed-job counts and aggregate demand,
// plus the rejection count. A nil registry records nothing.
func registerRouterSeries(reg *metrics.Registry, res *RouterResult, jobs []Job, platforms int, policy string) {
	if !reg.Enabled() {
		return
	}
	placed := make([]int, platforms)
	demand := make([]float64, platforms)
	for ji, pi := range res.Placement {
		if pi >= 0 {
			placed[pi]++
			demand[pi] += jobs[ji].Model.TotalFLOPs()
		}
	}
	for pi := 0; pi < platforms; pi++ {
		reg.CounterFunc(fmt.Sprintf("router_p%d_placed_jobs", pi), func() float64 { return float64(placed[pi]) })
		reg.Gauge(fmt.Sprintf("router_p%d_demand_flops", pi), func() float64 { return demand[pi] })
	}
	reg.CounterFunc("router_rejected_jobs", func() float64 { return float64(len(res.Rejected)) })
	reg.SetMeta("mode", "router")
	reg.SetMeta("model", policy)
	reg.Flush(0)
}

// argminLoad returns the least-loaded platform, ties to the lowest index.
func argminLoad(load []float64) int {
	pi := 0
	for c := 1; c < len(load); c++ {
		if load[c] < load[pi] {
			pi = c
		}
	}
	return pi
}

// capBytes maps the engine's capacity convention (NVRAMOnly = zero bytes)
// to a byte count for demand estimates.
func capBytes(c int64) int64 {
	if c == engine.NVRAMOnly {
		return 0
	}
	return c
}
