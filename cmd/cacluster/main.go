// Command cacluster runs the multi-tenant cluster simulation: N jobs
// multiplexed onto one shared tiered platform under a single virtual
// clock, or routed across M platforms behind a placement policy. Job
// mixes are seeded and deterministic — the same flags always reproduce
// the same bytes.
//
// Examples:
//
//	cacluster                          # 4-job seeded mix, one platform
//	cacluster -jobs 6 -seed 9          # a different, bigger mix
//	cacluster -fast 128MB -iters 3     # tighter fast tier, longer jobs
//	cacluster -platforms 2 -policy headroom
//	cacluster -nobase                  # skip the solo fairness baselines
//	cacluster -check -json             # audited run, machine-readable
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cachedarrays/internal/cluster"
	"cachedarrays/internal/engine"
	"cachedarrays/internal/experiments"
	"cachedarrays/internal/runcfg"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/units"
)

func main() {
	var (
		jobs      = flag.Int("jobs", 4, "number of tenant jobs in the seeded mix")
		seed      = flag.Int64("seed", 1, "mix seed (same seed, same bytes)")
		platforms = flag.Int("platforms", 1, "platforms behind the router (1 = one shared platform, no routing)")
		policy    = flag.String("policy", cluster.LeastLoaded,
			fmt.Sprintf("router placement policy %v", cluster.Policies))
		fast   = flag.String("fast", "192MB", "fast-tier (DRAM) capacity per platform")
		slow   = flag.String("slow", "4GB", "slow-tier capacity per platform")
		iters  = flag.Int("iters", 2, "training iterations per job")
		nobase = flag.Bool("nobase", false, "skip the solo baseline runs (no slowdown/induced-eviction columns)")
		asJSON = flag.Bool("json", false, "print the full result as JSON on stdout")
	)
	shared := runcfg.Register(flag.CommandLine)
	flag.Parse()
	if *jobs < 0 {
		fatal(fmt.Errorf("-jobs must not be negative (got %d)", *jobs))
	}

	// With -json stdout carries exactly one JSON document: the session's
	// status lines (where -metrics/-trace outputs landed) go to stderr.
	status := os.Stdout
	if *asJSON {
		status = os.Stderr
	}
	sess, err := shared.Start(*platforms > 1, status)
	fatal(err)
	defer sess.Close()

	fastB, err := units.ParseBytes(*fast)
	fatal(err)
	slowB, err := units.ParseBytes(*slow)
	fatal(err)

	ecfg := engine.Config{
		FastCapacity: fastB,
		SlowCapacity: slowB,
		Iterations:   *iters,
	}
	mix := cluster.Mix(*seed, *jobs)
	// One session scheduler serves everything: the solo fairness
	// baselines, and the whole-cluster memoization (with -cache, repeated
	// identical invocations re-serve entire cluster results from disk).
	runner := sess.Scheduler(os.Stderr)
	var baselines *sched.Scheduler
	if !*nobase {
		baselines = runner
	}

	if *platforms <= 1 {
		ccfg := cluster.Config{Engine: ecfg, Jobs: mix, Baselines: baselines, Sched: runner}
		finish := sess.ApplyCluster("cluster", &ccfg)
		res, err := cluster.Run(ccfg)
		fatal(err)
		fatal(finish(res))
		if *asJSON {
			emitJSON(res)
			return
		}
		fmt.Println(tenantTable("cluster: one shared platform", res, !*nobase).Text())
		fmt.Printf("makespan: %s over %d dispatched events\n",
			units.Seconds(res.Makespan), res.Dispatches)
		return
	}

	pcfgs := make([]engine.Config, *platforms)
	for i := range pcfgs {
		pcfgs[i] = ecfg
	}
	res, err := cluster.Route(cluster.RouterConfig{
		Platforms: pcfgs,
		Jobs:      mix,
		Policy:    *policy,
		Workers:   shared.Parallel,
		Baselines: baselines,
		Sched:     runner,
		Metrics:   sess.Registry("router"),
	})
	fatal(err)
	if *asJSON {
		emitJSON(res)
		return
	}
	fmt.Println(placementTable(mix, res, *policy).Text())
	for pi, pr := range res.Platforms {
		if pr == nil {
			continue
		}
		title := fmt.Sprintf("platform %d", pi)
		fmt.Println(tenantTable(title, pr, !*nobase).Text())
	}
}

// tenantTable renders one platform's per-tenant outcome and fairness
// metrics.
func tenantTable(title string, res *cluster.Result, base bool) *experiments.Table {
	t := &experiments.Table{
		Title:  title,
		Header: []string{"tenant", "mode", "events", "busy", "wait", "fast traffic", "fast share"},
	}
	if base {
		t.Header = append(t.Header, "solo time", "slowdown", "induced evict")
	}
	for _, tn := range res.Tenants {
		row := []string{
			tn.Name, tn.Mode,
			fmt.Sprintf("%d", tn.Steps),
			units.Seconds(tn.Busy),
			units.Seconds(tn.Wait),
			units.Bytes(tn.FastBytes),
			fmt.Sprintf("%.1f%%", 100*tn.FastShare),
		}
		if base {
			row = append(row,
				units.Seconds(tn.SoloTime),
				fmt.Sprintf("%.2fx", tn.Slowdown),
				fmt.Sprintf("%d", tn.InducedEvictions))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// placementTable renders the router's placement decisions.
func placementTable(jobs []cluster.Job, res *cluster.RouterResult, policy string) *experiments.Table {
	t := &experiments.Table{
		Title:  fmt.Sprintf("router placement (%s)", policy),
		Header: []string{"job", "mode", "arrival", "platform"},
	}
	for i, j := range jobs {
		placed := fmt.Sprintf("%d", res.Placement[i])
		if res.Placement[i] < 0 {
			placed = "rejected"
		}
		t.Rows = append(t.Rows, []string{
			j.Name, j.Mode, units.Seconds(j.Arrival), placed,
		})
	}
	if n := len(res.Rejected); n > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("%d job(s) rejected under pressure", n))
	}
	return t
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	fatal(enc.Encode(v))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cacluster:", err)
		os.Exit(1)
	}
}
