package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envStamp says where a report's numbers came from. Every report and
// span file carries one: a number without its machine is not a
// measurement.
type envStamp struct {
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	CPU         string `json:"cpu"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Seed        int64  `json:"seed"`
	Repetitions int    `json:"repetitions"` // minimum per workload
	Scale       string `json:"scale"`
}

func stampEnv(seed int64, reps int, sc scale) envStamp {
	e := envStamp{
		Commit: gitCommit(), GoVersion: runtime.Version(), CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Repetitions: reps, Scale: "full",
	}
	if sc.quick {
		e.Scale = "quick"
	}
	return e
}

// gitCommit is the checked-out commit, or "unknown" outside a git
// repository (the benchmark also runs from exported trees).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}
