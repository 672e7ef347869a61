// Command cafigures regenerates every table and figure of the paper's
// evaluation section and prints them as text tables (default) or writes
// them as CSV files into a directory.
//
// Examples:
//
//	cafigures                      # everything, text, paper scale
//	cafigures -only fig2,fig5      # just the Fig. 2 and Fig. 5 data
//	cafigures -scale 8 -iters 2    # 1/8-batch quick look
//	cafigures -outdir results/     # write CSVs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"cachedarrays/internal/experiments"
	"cachedarrays/internal/profiling"
	"cachedarrays/internal/runcfg"
)

// figures names everything -only accepts, in emission order: the help
// text, the default set and the unknown-name check all read this list.
var figures = []string{"table3", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig7async",
	"baselines", "beyond", "ablations", "cxl", "copybw", "dlrm"}

// selectFigures resolves the -only value (a comma list, empty = all)
// into the set of figures to emit.
func selectFigures(only string) (map[string]bool, error) {
	want := map[string]bool{}
	if only == "" {
		for _, k := range figures {
			want[k] = true
		}
		return want, nil
	}
	for _, k := range strings.Split(only, ",") {
		k = strings.TrimSpace(strings.ToLower(k))
		if !slices.Contains(figures, k) {
			return nil, fmt.Errorf("-only: unknown figure %q (valid: %s)", k, strings.Join(figures, ","))
		}
		want[k] = true
	}
	return want, nil
}

func main() {
	var (
		only    = flag.String("only", "", "comma list of: "+strings.Join(figures, ",")+" (default all)")
		iters   = flag.Int("iters", 4, "training iterations per run")
		scale   = flag.Int("scale", 1, "divide batch sizes by this factor (quick looks)")
		outdir  = flag.String("outdir", "", "write CSV files here instead of printing text")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	shared := runcfg.Register(flag.CommandLine)
	flag.Parse()
	want, err := selectFigures(*only)
	fatal(err)

	stopProf, err := profiling.Start(*cpuprof, *memprof)
	fatal(err)
	defer func() { fatal(stopProf()) }()

	sess, err := shared.Start(true, os.Stdout)
	fatal(err)
	defer sess.Close()

	// One scheduler serves every figure: worker bound and result cache
	// are shared, so a cell two figures both need (e.g. baselines' CA:LM
	// column and the matrix's) simulates once. Progress goes to stderr.
	opts := experiments.Options{
		Iterations: *iters, Scale: *scale,
		Instrument: sess.Apply, Sched: sess.Scheduler(os.Stderr),
	}

	emit := func(name string, tab *experiments.Table) {
		if *outdir == "" {
			fmt.Println(tab.Text())
			return
		}
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*outdir, name+".csv")
		if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path)
	}

	if want["table3"] {
		emit("table3", experiments.TableIII())
	}

	needMatrix := want["fig2"] || want["fig4"] || want["fig5"] || want["fig6"]
	if needMatrix {
		mat, err := experiments.RunMatrix(opts)
		fatal(err)
		if want["fig2"] {
			emit("fig2", experiments.Fig2(mat))
		}
		if want["fig4"] {
			emit("fig4", experiments.Fig4(mat))
		}
		if want["fig5"] {
			emit("fig5", experiments.Fig5(mat))
		}
		if want["fig6"] {
			emit("fig6", experiments.Fig6(mat))
		}
	}
	if want["fig3"] {
		tab, err := experiments.Fig3(opts, 64)
		fatal(err)
		emit("fig3", tab)
	}
	if want["fig7"] {
		tab, err := experiments.Fig7(opts, nil)
		fatal(err)
		emit("fig7", tab)
	}
	if want["fig7async"] {
		tab, err := experiments.Fig7Async(opts, nil)
		fatal(err)
		emit("fig7async", tab)
	}
	if want["baselines"] {
		tab, err := experiments.Baselines(opts)
		fatal(err)
		emit("baselines", tab)
	}
	if want["beyond"] {
		tab, err := experiments.BeyondCNNs(opts)
		fatal(err)
		emit("beyond", tab)
	}
	if want["ablations"] {
		tab, err := experiments.Ablations(opts)
		fatal(err)
		emit("ablations", tab)
	}
	if want["cxl"] {
		tab, err := experiments.CXLPortability(opts)
		fatal(err)
		emit("cxl", tab)
	}
	if want["copybw"] {
		emit("copybw", experiments.CopyBandwidth())
		emit("copysizes", experiments.CopyTransferSizes())
	}
	if want["dlrm"] {
		r, err := experiments.DLRM(opts)
		fatal(err)
		emit("dlrm", r.Table())
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cafigures:", err)
		os.Exit(1)
	}
}
