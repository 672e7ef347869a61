// Command catrace summarizes an execution trace recorded with
// carun -trace <file>.jsonl: it re-verifies the trace against the run's
// embedded aggregates, attributes movement stalls to their sites,
// attributes injected faults and the resulting retries and degradation
// decisions to their hint windows, and reconstructs per-object movement
// histories.
//
// Cluster traces (cacluster -trace) are detected automatically: the tool
// re-verifies every tenant's lane instead, then prints the per-tenant
// outcome table and the two cross-tenant interference matrices — stall
// time attributed to the tenant that was running, and induced evictions
// attributed to the tenant crowding the fast tier.
//
// Examples:
//
//	carun -model vgg416 -batch 256 -mode CA:LMP -trace run.jsonl
//	catrace run.jsonl
//	catrace -top 20 -objects 5 -v run.jsonl
//	cacluster -jobs 3 -trace cluster.jsonl && catrace cluster.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"cachedarrays/internal/tracing"
	"cachedarrays/internal/units"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// cliMain is the testable entry point: it returns the process exit code
// (0 ok, 1 unreadable/malformed/inconsistent trace, 2 usage error).
func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("catrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		top     = fs.Int("top", 10, "rows in the stall-attribution table")
		objects = fs.Int("objects", 10, "objects in the movement-history listing")
		verbose = fs.Bool("v", false, "print every movement event of the listed objects")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: catrace [-top N] [-objects N] [-v] trace.jsonl")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "catrace:", err)
		return 1
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	events, err := tracing.ReadJSONL(f)
	f.Close()
	if err != nil {
		return fail(fmt.Errorf("%s: %w", fs.Arg(0), err))
	}
	if len(events) == 0 {
		return fail(fmt.Errorf("%s: empty trace", fs.Arg(0)))
	}

	if c := tracing.FindCluster(events); c != nil {
		if err := clusterReport(stdout, events, c); err != nil {
			return fail(err)
		}
		return 0
	}

	t := tracing.FindTotals(events)
	if t == nil {
		return fail(fmt.Errorf("%s: no totals record — is this a carun -trace .jsonl file?", fs.Arg(0)))
	}
	if err := tracing.Verify(events); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "trace       : %d events, %d iterations, devices %s+%s (consistency verified)\n",
		len(events), len(t.MoveTimeByIter), t.FastDevice, t.SlowDevice)

	s := tracing.Summarize(events)
	fmt.Fprintf(stdout, "movement    : %d copies — %s %s, %s %s, %s within fast, %s within slow; %d defrag moves\n",
		s.Copies,
		units.Bytes(s.BytesFastToSlow), "fast->slow",
		units.Bytes(s.BytesSlowToFast), "slow->fast",
		units.Bytes(s.BytesWithinFast), units.Bytes(s.BytesWithinSlow), s.DefragMoves)
	fmt.Fprintf(stdout, "traffic     : %s read %s, write %s; %s read %s, write %s\n",
		t.FastDevice, units.Bytes(t.FastReadBytes), units.Bytes(t.FastWriteBytes),
		t.SlowDevice, units.Bytes(t.SlowReadBytes), units.Bytes(t.SlowWriteBytes))
	fmt.Fprintf(stdout, "stalls      : %s total", units.Seconds(s.StallSeconds))
	for i, m := range t.MoveTimeByIter {
		fmt.Fprintf(stdout, "  iter%d=%s", i, units.Seconds(m))
	}
	fmt.Fprintln(stdout)

	names := tensorNames(events)
	printStallTable(stdout, events, names, s.StallSeconds, *top)
	printFaultTable(stdout, events, names)
	printObjectHistories(stdout, events, names, *objects, *verbose)
	return 0
}

// tensorNames maps object IDs to tensor names via the bind events.
func tensorNames(events []tracing.Event) map[uint64]string {
	names := map[uint64]string{}
	for _, e := range events {
		if e.Kind == tracing.KindBind {
			names[e.Obj] = e.Op
		}
	}
	return names
}

// stallKey identifies one stall site: where the application thread blocked,
// and on what.
type stallKey struct {
	op     string // hint / wait / drain
	kernel string // kernel about to run ("" at end of iteration)
	tensor string // blocking tensor (async waits only)
}

// printStallTable aggregates stalls by site and prints the top-n table —
// the "where did my iteration time go" view.
func printStallTable(w io.Writer, events []tracing.Event, names map[uint64]string, total float64, n int) {
	type row struct {
		key     stallKey
		seconds float64
		count   int64
	}
	byKey := map[stallKey]*row{}
	for _, e := range events {
		if e.Kind != tracing.KindStall || e.Dur <= 0 {
			continue
		}
		k := stallKey{op: e.Op, kernel: e.KName}
		if e.Op == "wait" {
			k.tensor = names[e.Obj]
		}
		r := byKey[k]
		if r == nil {
			r = &row{key: k}
			byKey[k] = r
		}
		r.seconds += e.Dur
		r.count++
	}
	rows := make([]*row, 0, len(byKey))
	for _, r := range byKey {
		rows = append(rows, r)
	}
	// Rows come from map iteration: break every tie so equal stall times
	// print in the same order on every run.
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.seconds != b.seconds {
			return a.seconds > b.seconds
		}
		if a.count != b.count {
			return a.count > b.count
		}
		if a.key.op != b.key.op {
			return a.key.op < b.key.op
		}
		if a.key.kernel != b.key.kernel {
			return a.key.kernel < b.key.kernel
		}
		return a.key.tensor < b.key.tensor
	})
	if len(rows) == 0 {
		fmt.Fprintln(w, "\nno movement stalls recorded")
		return
	}
	fmt.Fprintf(w, "\ntop stall sites (of %d):\n", len(rows))
	fmt.Fprintf(w, "  %-6s %-24s %-24s %8s %12s %7s\n", "site", "kernel", "tensor", "count", "seconds", "share")
	shown := rows
	if len(shown) > n {
		shown = shown[:n]
	}
	for _, r := range shown {
		kernel, tensor := r.key.kernel, r.key.tensor
		if kernel == "" {
			kernel = "(end of iteration)"
		}
		if tensor == "" {
			tensor = "-"
		}
		share := 0.0
		if total > 0 {
			share = 100 * r.seconds / total
		}
		fmt.Fprintf(w, "  %-6s %-24s %-24s %8d %12s %6.1f%%\n",
			r.key.op, clip(kernel, 24), clip(tensor, 24), r.count,
			units.Seconds(r.seconds), share)
	}
}

// degradations names the policy decisions that exist only as graceful
// responses to injected faults; catrace surfaces them next to the faults
// that caused them.
var degradations = map[string]bool{
	"fallback-slow":   true,
	"evict-abandoned": true,
	"fetch-failure":   true,
}

// printFaultTable attributes injected faults to the hint windows they fired
// in, alongside the victims' responses: bounded retry/backoff steps and the
// policy's degradation decisions. Traces from fault-free runs carry none of
// these events and the section is omitted entirely.
func printFaultTable(w io.Writer, events []tracing.Event, names map[uint64]string) {
	type key struct {
		kind  string // fault / retry / decision
		op    string // alloc-fail, copy-retry, fallback-slow, ...
		cause string // hint window the event fired in
	}
	type row struct {
		key     key
		count   int64
		bytes   int64
		seconds float64 // injected stall or backoff waited
		tensors map[string]bool
	}
	byKey := map[key]*row{}
	add := func(k key, e tracing.Event) {
		r := byKey[k]
		if r == nil {
			r = &row{key: k, tensors: map[string]bool{}}
			byKey[k] = r
		}
		r.count++
		r.bytes += e.Bytes
		r.seconds += e.Dur
		if name := names[e.Obj]; name != "" {
			r.tensors[name] = true
		}
	}
	for _, e := range events {
		switch {
		case e.Kind == tracing.KindFault:
			add(key{kind: "fault", op: e.Op, cause: e.Cause}, e)
		case e.Kind == tracing.KindRetry:
			add(key{kind: "retry", op: e.Op, cause: e.Cause}, e)
		case e.Kind == tracing.KindDecision && degradations[e.Op]:
			add(key{kind: "decision", op: e.Op, cause: e.Cause}, e)
		}
	}
	if len(byKey) == 0 {
		return
	}
	rows := make([]*row, 0, len(byKey))
	for _, r := range byKey {
		rows = append(rows, r)
	}
	// Faults first, then the retries they triggered, then the decisions
	// the policy took; within a class, heaviest hitters first.
	rank := map[string]int{"fault": 0, "retry": 1, "decision": 2}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if rank[a.key.kind] != rank[b.key.kind] {
			return rank[a.key.kind] < rank[b.key.kind]
		}
		if a.count != b.count {
			return a.count > b.count
		}
		if a.key.op != b.key.op {
			return a.key.op < b.key.op
		}
		return a.key.cause < b.key.cause
	})
	fmt.Fprintf(w, "\ninjected faults and degradation (%d sites):\n", len(rows))
	fmt.Fprintf(w, "  %-8s %-16s %-12s %8s %10s %12s %s\n",
		"class", "event", "during", "count", "bytes", "seconds", "tensors")
	for _, r := range rows {
		cause := r.key.cause
		if cause == "" {
			cause = "-"
		}
		fmt.Fprintf(w, "  %-8s %-16s %-12s %8d %10s %12s %s\n",
			r.key.kind, r.key.op, clip(cause, 12), r.count,
			units.Bytes(r.bytes), units.Seconds(r.seconds),
			tensorList(r.tensors, 3))
	}
}

// tensorList renders up to n tensor names from a set, sorted for
// deterministic output.
func tensorList(set map[string]bool, n int) string {
	if len(set) == 0 {
		return "-"
	}
	all := make([]string, 0, len(set))
	for name := range set {
		all = append(all, name)
	}
	sort.Strings(all)
	out := ""
	for i, name := range all {
		if i == n {
			out += fmt.Sprintf(" +%d more", len(all)-n)
			break
		}
		if i > 0 {
			out += " "
		}
		out += name
	}
	return out
}

// printObjectHistories lists the n objects with the most moved bytes and
// reconstructs each one's movement history from its copy events.
func printObjectHistories(w io.Writer, events []tracing.Event, names map[uint64]string, n int, verbose bool) {
	type hist struct {
		obj    uint64
		bytes  int64
		copies []tracing.Event
	}
	byObj := map[uint64]*hist{}
	for _, e := range events {
		if e.Kind != tracing.KindCopy || e.Obj == 0 {
			continue
		}
		h := byObj[e.Obj]
		if h == nil {
			h = &hist{obj: e.Obj}
			byObj[e.Obj] = h
		}
		h.bytes += e.Bytes
		h.copies = append(h.copies, e)
	}
	hists := make([]*hist, 0, len(byObj))
	for _, h := range byObj {
		hists = append(hists, h)
	}
	sort.Slice(hists, func(i, j int) bool {
		if hists[i].bytes != hists[j].bytes {
			return hists[i].bytes > hists[j].bytes
		}
		return hists[i].obj < hists[j].obj
	})
	if len(hists) == 0 {
		fmt.Fprintln(w, "\nno object movement recorded")
		return
	}
	fmt.Fprintf(w, "\nmost-moved objects (of %d):\n", len(hists))
	if len(hists) > n {
		hists = hists[:n]
	}
	for _, h := range hists {
		name := names[h.obj]
		if name == "" {
			name = "?"
		}
		fmt.Fprintf(w, "  obj %-5d %-28s %10s moved in %d copies\n",
			h.obj, clip(name, 28), units.Bytes(h.bytes), len(h.copies))
		if !verbose {
			continue
		}
		for _, e := range h.copies {
			site := e.KName
			if site == "" {
				site = "(between kernels)"
			}
			cause := e.Cause
			if cause == "" {
				cause = "-"
			}
			fmt.Fprintf(w, "    iter %d  t=%-12s %5s->%-5s %10s  cause=%-10s at %s\n",
				e.Iter, units.Seconds(e.T0), e.From, e.To, units.Bytes(e.Bytes), cause, site)
		}
	}
}

// clip shortens s to at most n runes.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
