// Command cacheck verifies the reproduction: it runs the full evaluation
// and scores every qualitative claim the paper makes against this build's
// measurements, printing a PASS/FAIL table. It exits non-zero if any
// claim fails, so CI can gate on it.
//
// Examples:
//
//	cacheck               # paper scale, 4 iterations (~30 s)
//	cacheck -iters 2      # quicker
//	cacheck -cache d      # after `cafigures -cache d`: simulates nothing
package main

import (
	"flag"
	"fmt"
	"os"

	"cachedarrays/internal/experiments"
	"cachedarrays/internal/runcfg"
	"cachedarrays/internal/sched"
)

func main() {
	var (
		iters    = flag.Int("iters", 4, "training iterations per run")
		parallel = flag.Int("parallel", 8, "concurrent simulation runs")
		cacheDir = flag.String("cache", "", runcfg.CacheUsage)
	)
	flag.Parse()

	var cache *sched.Cache // nil: never hits, never stores
	if *cacheDir != "" {
		var err error
		cache, err = sched.OpenCache(*cacheDir)
		fatal(err)
	}
	// Progress and the per-batch summary (hits, simulated) go to stderr,
	// as cafigures prints them; the table on stdout stays clean.
	claims, err := experiments.CheckClaims(experiments.Options{
		Iterations: *iters,
		Sched:      &sched.Scheduler{Workers: *parallel, Cache: cache, Progress: os.Stderr},
	})
	fatal(err)
	fmt.Print(experiments.ClaimsTable(claims).Text())
	for _, c := range claims {
		if !c.Pass {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cacheck:", err)
		os.Exit(1)
	}
}
