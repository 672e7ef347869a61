// Package tourney runs the policy tournament: every candidate policy mode
// against every workload — the paper's figure configurations plus
// fault-injected variants — through the shared run scheduler, producing a
// deterministic ranked comparison.
//
// The tournament answers the question the per-figure experiments cannot:
// across the whole workload matrix, which policy is the best default, by
// how much, and how gracefully does each degrade when the platform
// misbehaves? Every run is a deterministic virtual-time simulation, so
// two tournaments over the same configuration render byte-identical
// tables — the property the CI smoke job pins.
package tourney

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cachedarrays/internal/cluster"
	"cachedarrays/internal/engine"
	"cachedarrays/internal/experiments"
	"cachedarrays/internal/faults"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/units"
)

// Workload is one tournament column: a named model build plus the engine
// configuration (capacities, slow-tier technology) it runs under.
type Workload struct {
	Name string
	// Build constructs a private model instance (cells may run
	// concurrently; they never share a model).
	Build func() (*models.Model, error)
	// Cfg is the workload's base engine configuration; the tournament
	// fills Iterations and FaultSpec per cell.
	Cfg engine.Config
}

// slowDevice names the workload's slow device for fault-spec templating.
func (w Workload) slowDevice() string {
	if w.Cfg.SlowTier == "cxl" {
		return "cxl"
	}
	return "nvram"
}

// FaultVariant is one fault-injected re-run of every (mode, workload)
// pair. The spec may reference {slow}, replaced by the workload's slow
// device name ("nvram" or "cxl") so bandwidth episodes hit the right
// device on every workload.
type FaultVariant struct {
	Name string
	Spec string
}

// DefaultFaults returns the standard degradation probes: a transient
// fast-tier allocation-failure episode and a slow-tier bandwidth
// collapse. Both are seeded, so faulted runs are as deterministic as
// clean ones.
func DefaultFaults() []FaultVariant {
	return []FaultVariant{
		{Name: "allocfail", Spec: "seed=42;allocfail:fast:t0=0.1,p=0.3"},
		{Name: "bwslow", Spec: "seed=42;bw:{slow}:t0=0.2,factor=0.25"},
	}
}

// DefaultModes returns the tournament's candidate policies: the paper's
// four static CachedArrays modes plus the adaptive stacks.
func DefaultModes() []string {
	m := make([]string, 0, len(policy.Modes)+len(engine.AdaptiveModes))
	for _, pm := range policy.Modes {
		m = append(m, pm.String())
	}
	return append(m, engine.AdaptiveModes...)
}

// DefaultWorkloads returns the seven standard tournament workloads: the
// three large networks at paper capacity (the Fig. 2 setting), the three
// small networks under a tight DRAM budget derived from each model's
// footprint (the regime where placement quality matters most — Fig. 7's
// steep region), and one CXL-slow-tier variant (the §VI portability
// setting). scale divides batch sizes for quick looks (0 or 1 = paper
// scale).
func DefaultWorkloads(scale int) []Workload {
	if scale < 1 {
		scale = 1
	}
	var ws []Workload
	for _, pm := range models.PaperLargeModels() {
		ws = append(ws, Workload{
			Name:  metrics.SafeName(pm.Name, "large"),
			Build: func() (*models.Model, error) { return pm.BuildScaled(scale), nil },
		})
	}
	for _, pm := range models.PaperSmallModels() {
		// Tight DRAM: a quarter of the model's own peak footprint, so
		// even the "fits in DRAM" networks are forced to tier.
		foot := pm.BuildScaled(scale).PeakFootprint()
		ws = append(ws, Workload{
			Name:  metrics.SafeName(pm.Name, "tight"),
			Build: func() (*models.Model, error) { return pm.BuildScaled(scale), nil },
			Cfg:   engine.Config{FastCapacity: tightCapacity(foot)},
		})
	}
	cxl := models.PaperLargeModels()[1] // ResNet 200
	ws = append(ws, Workload{
		Name:  metrics.SafeName(cxl.Name, "cxl"),
		Build: func() (*models.Model, error) { return cxl.BuildScaled(scale), nil },
		Cfg:   engine.Config{SlowTier: "cxl"},
	})
	return ws
}

// tightCapacity derives the tight-DRAM budget from a model footprint: a
// quarter of peak liveness, floored at 256 MB so tiny quick-look scales
// still hold a few objects.
func tightCapacity(footprint int64) int64 {
	c := footprint / 4
	if min := int64(256 * units.MB); c < min {
		c = min
	}
	if c > memsim.DefaultFastCapacity {
		c = memsim.DefaultFastCapacity
	}
	return c
}

// Options configure a tournament.
type Options struct {
	// Modes are the candidate policies (default DefaultModes). Each must
	// be a CachedArrays mode — the tournament compares placement
	// policies over the same runtime, so 2LM/OS baselines don't enter.
	Modes []string
	// Workloads are the columns (default DefaultWorkloads(Scale)).
	Workloads []Workload
	// Faults are the degradation probes (default DefaultFaults; empty
	// non-nil slice disables fault variants).
	Faults []FaultVariant
	// Iterations per run (default 2: one warm-up, one measured).
	Iterations int
	// Scale divides batch sizes in the default workloads (quick looks).
	Scale int
	// NoCluster skips the contention column: a 2-tenant cluster run per
	// mode (the candidate sharing a tight platform with a CA:LMP
	// antagonist) that scores how gracefully each policy degrades under a
	// noisy neighbour.
	NoCluster bool
	// Sched executes the cells (nil = a private serial scheduler). A
	// shared scheduler brings its result cache: a re-run tournament is
	// served entirely from cache.
	Sched *sched.Scheduler
	// Instrument mirrors experiments.Options.Instrument: a per-cell hook
	// that may attach instrumentation to the run config (instrumented
	// cells bypass the result cache).
	Instrument func(name string, cfg *engine.Config) func(*engine.Result) error
}

func (o Options) withDefaults() (Options, error) {
	if o.Modes == nil {
		o.Modes = DefaultModes()
	}
	for i, m := range o.Modes {
		canon, err := sched.Normalize(m)
		if err != nil {
			return o, err
		}
		if !strings.HasPrefix(canon, "CA:") {
			return o, fmt.Errorf("tourney: mode %q is not a CachedArrays policy", m)
		}
		o.Modes[i] = canon
	}
	if o.Workloads == nil {
		o.Workloads = DefaultWorkloads(o.Scale)
	}
	if o.Faults == nil {
		o.Faults = DefaultFaults()
	}
	if o.Iterations == 0 {
		o.Iterations = 2
	}
	if o.Sched == nil {
		o.Sched = &sched.Scheduler{}
	}
	return o, nil
}

// CellResult is one (mode, workload, fault-variant) run's extract.
type CellResult struct {
	Mode     string  `json:"mode"`
	Workload string  `json:"workload"`
	Fault    string  `json:"fault,omitempty"` // empty = clean run
	IterTime float64 `json:"iter_time"`
	MoveTime float64 `json:"move_time"`
	// Moves counts placement decisions: prefetches + evictions plus the
	// adaptive layers' promotions and demotions.
	Moves    int64                `json:"moves"`
	Adaptive policy.AdaptiveStats `json:"adaptive,omitempty"`
}

// ModeScore is one ranked row of the tournament.
type ModeScore struct {
	Rank int    `json:"rank"`
	Mode string `json:"mode"`
	// RelTime is the geometric mean over clean workloads of this mode's
	// iteration time relative to the per-workload best mode (1.0 = best
	// everywhere).
	RelTime float64 `json:"rel_time"`
	// Wins counts clean workloads where this mode was the fastest.
	Wins int `json:"wins"`
	// MoveShare is the mean fraction of iteration time spent stalled on
	// data movement across clean workloads.
	MoveShare float64 `json:"move_share"`
	// Moves totals placement decisions across clean workloads.
	Moves int64 `json:"moves"`
	// FaultDegradation is the geometric mean over (workload, fault)
	// pairs of faulted iteration time over the same mode's clean time
	// (1.0 = faults cost nothing; absent fault variants report 1.0).
	FaultDegradation float64 `json:"fault_degradation"`
	// ClusterSlowdown is the mode's slowdown versus its solo run when it
	// shares a tight platform with a CA:LMP antagonist (the contention
	// column; 0 when Options.NoCluster). Lower is more neighbour-proof.
	ClusterSlowdown float64 `json:"cluster_slowdown,omitempty"`
	// ClusterInducedEvictions counts the evictions the antagonist forced
	// on this mode beyond its solo count in the same scenario.
	ClusterInducedEvictions int64 `json:"cluster_induced_evictions,omitempty"`
}

// Result is a completed tournament: the ranked scores plus every cell.
type Result struct {
	Modes  []string     `json:"modes"`
	Scores []ModeScore  `json:"scores"`
	Cells  []CellResult `json:"cells"`
}

// Run executes the tournament: len(Modes) x len(Workloads) x
// (1 + len(Faults)) cells through the scheduler, then scores and ranks.
func Run(opts Options) (*Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	type key struct{ mode, workload, fault string }
	var cells []sched.Cell
	var keys []key
	for _, w := range opts.Workloads {
		for _, mode := range opts.Modes {
			variants := append([]FaultVariant{{}}, opts.Faults...)
			for _, fv := range variants {
				cfg := w.Cfg
				cfg.Iterations = opts.Iterations
				if fv.Spec != "" {
					cfg.FaultSpec = strings.ReplaceAll(fv.Spec, "{slow}", w.slowDevice())
					// A bad spec fails the tournament before any cell runs.
					if _, err := faults.Parse(cfg.FaultSpec); err != nil {
						return nil, fmt.Errorf("tourney: fault variant %q: %w", fv.Name, err)
					}
				}
				parts := []string{"tourney", w.Name, mode}
				if fv.Name != "" { // the clean variant has no fault name
					parts = append(parts, fv.Name)
				}
				name := metrics.SafeName(parts...)
				cell := sched.Cell{Name: name, Build: w.Build, Mode: mode, Cfg: cfg}
				if opts.Instrument != nil {
					cell.Done = opts.Instrument(name, &cell.Cfg)
				}
				cells = append(cells, cell)
				keys = append(keys, key{mode, w.Name, fv.Name})
			}
		}
	}
	results, err := opts.Sched.Run(cells)
	if err != nil {
		return nil, err
	}

	res := &Result{Modes: opts.Modes}
	byKey := make(map[key]*engine.Result, len(results))
	for i, r := range results {
		byKey[keys[i]] = r
		moves := r.Policy.Prefetches + r.Policy.Evictions +
			r.Adaptive.Promotions + r.Adaptive.Demotions
		res.Cells = append(res.Cells, CellResult{
			Mode: keys[i].mode, Workload: keys[i].workload, Fault: keys[i].fault,
			IterTime: r.IterTime, MoveTime: r.MoveTime,
			Moves: moves, Adaptive: r.Adaptive,
		})
	}

	// Per-workload best clean time across modes (the ranking baseline).
	best := make(map[string]float64, len(opts.Workloads))
	for _, w := range opts.Workloads {
		b := math.Inf(1)
		for _, mode := range opts.Modes {
			if t := byKey[key{mode, w.Name, ""}].IterTime; t < b {
				b = t
			}
		}
		best[w.Name] = b
	}

	for _, mode := range opts.Modes {
		s := ModeScore{Mode: mode, RelTime: 1, FaultDegradation: 1}
		var relLog, moveShare, degLog float64
		var degN int
		var moves int64
		for _, w := range opts.Workloads {
			clean := byKey[key{mode, w.Name, ""}]
			relLog += math.Log(clean.IterTime / best[w.Name])
			if clean.IterTime == best[w.Name] {
				s.Wins++
			}
			if clean.IterTime > 0 {
				moveShare += clean.MoveTime / clean.IterTime
			}
			moves += byCell(res, mode, w.Name, "").Moves
			for _, fv := range opts.Faults {
				faulted := byKey[key{mode, w.Name, fv.Name}]
				degLog += math.Log(faulted.IterTime / clean.IterTime)
				degN++
			}
		}
		n := float64(len(opts.Workloads))
		s.RelTime = math.Exp(relLog / n)
		s.MoveShare = moveShare / n
		s.Moves = moves
		if degN > 0 {
			s.FaultDegradation = math.Exp(degLog / float64(degN))
		}
		res.Scores = append(res.Scores, s)
	}
	if !opts.NoCluster {
		if err := clusterColumn(res, opts); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(res.Scores, func(i, j int) bool {
		if res.Scores[i].RelTime != res.Scores[j].RelTime {
			return res.Scores[i].RelTime < res.Scores[j].RelTime
		}
		return res.Scores[i].Mode < res.Scores[j].Mode
	})
	for i := range res.Scores {
		res.Scores[i].Rank = i + 1
	}
	return res, nil
}

// clusterModel builds the contention scenario's workload: an MLP whose
// working set overflows the scenario's fast tier when shared but fits
// solo, so the column isolates neighbour-induced cost.
func clusterModel() (*models.Model, error) {
	return models.MLP(1024, []int{4096, 4096}, 10, 256), nil
}

// clusterColumn fills each score's contention metrics: the candidate mode
// as victim against a CA:LMP antagonist on one tight shared platform,
// with the solo baselines going through the tournament's scheduler (and
// its cache — the antagonist's baseline dedups across candidates).
func clusterColumn(res *Result, opts Options) error {
	// The scenario is fixed (not scaled by Options): a tight fast tier
	// and enough iterations for thrash cycles to develop, so the column
	// stays comparable across tournament configurations.
	cfg := engine.Config{
		FastCapacity: 128 * units.MB,
		SlowCapacity: 4 * units.GB,
		Iterations:   3,
	}
	for i, s := range res.Scores {
		cres, err := cluster.Run(cluster.Config{
			Engine: cfg,
			Jobs: []cluster.Job{
				{Name: "victim", Build: clusterModel, Mode: s.Mode},
				{Name: "antagonist", Build: clusterModel, Mode: "CA:LMP"},
			},
			Baselines: opts.Sched,
			// The whole contention run memoizes too: a warm-cache
			// tournament re-serves every cluster column from disk.
			Sched: opts.Sched,
		})
		if err != nil {
			return fmt.Errorf("tourney: cluster column, mode %s: %w", s.Mode, err)
		}
		victim := cres.Tenants[0]
		res.Scores[i].ClusterSlowdown = victim.Slowdown
		res.Scores[i].ClusterInducedEvictions = victim.InducedEvictions
	}
	return nil
}

// byCell finds a cell extract (linear scan; tournament sizes are tiny).
func byCell(r *Result, mode, workload, fault string) CellResult {
	for _, c := range r.Cells {
		if c.Mode == mode && c.Workload == workload && c.Fault == fault {
			return c
		}
	}
	return CellResult{}
}

// Ranking renders the tournament's headline table: one row per mode,
// best first.
func (r *Result) Ranking() *experiments.Table {
	t := &experiments.Table{
		Title:  "Policy tournament — ranked over all workloads",
		Header: []string{"rank", "mode", "rel time (geo)", "wins", "move share", "moves", "fault degradation"},
		Notes: []string{
			"rel time: geometric mean of iteration time over the per-workload best (1.000 = best everywhere)",
			"fault degradation: geomean of faulted/clean iteration time for the same mode (1.000 = unaffected)",
		},
	}
	withCluster := false
	for _, s := range r.Scores {
		if s.ClusterSlowdown != 0 {
			withCluster = true
		}
	}
	if withCluster {
		t.Header = append(t.Header, "cluster slowdown", "induced evict")
		t.Notes = append(t.Notes,
			"cluster slowdown: the mode's slowdown vs. solo sharing a tight platform with a CA:LMP antagonist (lower = more neighbour-proof)")
	}
	for _, s := range r.Scores {
		row := []string{
			fmt.Sprint(s.Rank), s.Mode,
			fmt.Sprintf("%.3f", s.RelTime),
			fmt.Sprint(s.Wins),
			fmt.Sprintf("%.1f%%", 100*s.MoveShare),
			fmt.Sprint(s.Moves),
			fmt.Sprintf("%.3f", s.FaultDegradation),
		}
		if withCluster {
			row = append(row,
				fmt.Sprintf("%.2fx", s.ClusterSlowdown),
				fmt.Sprint(s.ClusterInducedEvictions))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// CellTable renders every cell: the full mode x workload x variant
// matrix behind the ranking.
func (r *Result) CellTable() *experiments.Table {
	t := &experiments.Table{
		Title:  "Policy tournament — per-run detail",
		Header: []string{"workload", "fault", "mode", "iter (s)", "move (s)", "moves", "backoffs", "suppressed"},
	}
	for _, c := range r.Cells {
		fault := c.Fault
		if fault == "" {
			fault = "clean"
		}
		t.Rows = append(t.Rows, []string{
			c.Workload, fault, c.Mode,
			fmt.Sprintf("%.4f", c.IterTime),
			fmt.Sprintf("%.4f", c.MoveTime),
			fmt.Sprint(c.Moves),
			fmt.Sprint(c.Adaptive.ThrashBackoffs),
			fmt.Sprint(c.Adaptive.SuppressedFetches),
		})
	}
	return t
}
