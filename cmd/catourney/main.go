// Command catourney runs the policy tournament: every candidate policy
// (the four static CachedArrays modes plus the adaptive stacks) against
// every tournament workload — the paper's figure configurations plus
// fault-injected variants — and prints a deterministic ranked comparison.
//
// Examples:
//
//	catourney                         # full tournament, text tables
//	catourney -scale 16 -iters 2      # 1/16-batch quick look
//	catourney -modes CA:LMP,CA:TG     # head-to-head
//	catourney -nofaults               # clean runs only
//	catourney -outdir results/        # write ranking.csv + cells.csv
//	catourney -json                   # machine-readable full result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cachedarrays/internal/experiments"
	"cachedarrays/internal/runcfg"
	"cachedarrays/internal/tourney"
)

func main() {
	var (
		iters     = flag.Int("iters", 2, "training iterations per run (first is warm-up)")
		scale     = flag.Int("scale", 1, "divide batch sizes by this factor (quick looks)")
		modes     = flag.String("modes", "", "comma list of candidate modes (default: all CA modes incl. adaptive)")
		nofaults  = flag.Bool("nofaults", false, "skip the fault-injected degradation variants")
		nocluster = flag.Bool("nocluster", false, "skip the noisy-neighbour contention column (2-tenant cluster run per mode)")
		fault     = flag.String("fault", "", "replace the default fault variants with one name=spec pair ({slow} expands to the workload's slow device)")
		outdir    = flag.String("outdir", "", "write ranking.csv and cells.csv here instead of printing text")
		asJSON    = flag.Bool("json", false, "print the full result as JSON on stdout")
	)
	shared := runcfg.Register(flag.CommandLine)
	flag.Parse()

	// With -json stdout carries exactly one JSON document: the session's
	// status lines (where -metrics/-trace outputs landed) go to stderr.
	status := os.Stdout
	if *asJSON {
		status = os.Stderr
	}
	sess, err := shared.Start(true, status)
	fatal(err)
	defer sess.Close()

	opts := tourney.Options{
		Iterations: *iters,
		Scale:      *scale,
		NoCluster:  *nocluster,
		Instrument: sess.Apply,
		Sched:      sess.Scheduler(os.Stderr),
	}
	if *modes != "" {
		for _, m := range strings.Split(*modes, ",") {
			opts.Modes = append(opts.Modes, strings.TrimSpace(m))
		}
	}
	switch {
	case *nofaults:
		opts.Faults = []tourney.FaultVariant{}
	case *fault != "":
		name, spec, ok := strings.Cut(*fault, "=")
		if !ok {
			fatal(fmt.Errorf("-fault wants name=spec, got %q", *fault))
		}
		opts.Faults = []tourney.FaultVariant{{Name: name, Spec: spec}}
	}

	res, err := tourney.Run(opts)
	fatal(err)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(res))
		return
	}
	emit := func(name string, tab *experiments.Table) {
		if *outdir == "" {
			fmt.Println(tab.Text())
			return
		}
		fatal(os.MkdirAll(*outdir, 0o755))
		path := filepath.Join(*outdir, name+".csv")
		fatal(os.WriteFile(path, []byte(tab.CSV()), 0o644))
		fmt.Println("wrote", path)
	}
	emit("ranking", res.Ranking())
	emit("cells", res.CellTable())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "catourney:", err)
		os.Exit(1)
	}
}
