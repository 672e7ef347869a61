package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"cachedarrays/internal/cluster"
	"cachedarrays/internal/engine"
)

// goldenFile holds, per non-suite workload, the sha256 of every output at
// the full scale. Outputs that depend on the seed (the order cluster jobs
// are submitted in) are only comparable at defaultSeed; the rest are
// compared on every seed.
//
//go:embed golden.json
var goldenFile []byte

const defaultSeed = 42

const goldenPath = "bench/golden.json"

// golden maps workload → output name → digest.
type golden map[string]map[string]string

func loadGolden() (golden, error) {
	g := golden{}
	if err := json.Unmarshal(goldenFile, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

func writeGolden(g golden) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}

// seedBound reports whether an output's content depends on the seed.
func seedBound(output string) bool {
	return strings.HasPrefix(output, "cluster-")
}

// goldenMismatches counts the outputs of one repetition that differ from
// the committed digests. Seed-bound outputs are skipped off the default
// seed; an output with no committed digest counts as a mismatch, so a
// forgotten -update-golden cannot pass.
func (g golden) mismatches(workload string, seed int64, got map[string]string) (n int, names []string) {
	want := g[workload]
	for name, d := range got {
		if seedBound(name) && seed != defaultSeed {
			continue
		}
		if want[name] != d {
			n++
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return n, names
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// bareResult returns a copy of r with everything that only an observer
// adds cleared — the recorded instrumentation switches, the trace, the
// event log, the audit count — so an observed run digests like its bare
// twin. It is the normalisation the repo's DeepEqual observer tests use.
func bareResult(r *engine.Result) engine.Result {
	c := *r
	c.Config.Trace = false
	c.Config.TraceEvents = 0
	c.Config.CheckEveryAdvance = false
	c.Config.CheckInvariants = false
	c.Config.Metrics = nil
	c.Trace = nil
	c.Events = nil
	c.InvariantChecks = 0
	return c
}

func digestEngine(r *engine.Result) string {
	b, err := json.Marshal(bareResult(r))
	if err != nil {
		// A Result always marshals (the result cache depends on it).
		panic(fmt.Sprintf("bench: marshal result: %v", err))
	}
	return digestBytes(b)
}

func digestCluster(r *cluster.Result) string {
	c := *r
	c.Tenants = append([]cluster.Tenant(nil), r.Tenants...)
	for i := range c.Tenants {
		if tr := c.Tenants[i].Result; tr != nil {
			bare := bareResult(tr)
			c.Tenants[i].Result = &bare
		}
	}
	b, err := json.Marshal(&c)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal cluster result: %v", err))
	}
	return digestBytes(b)
}
