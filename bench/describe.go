package main

import (
	"encoding/json"
	"io"
)

// runSeconds is how long the driver lets one run measure.
const runSeconds = 10

// benchmarkFile is the shape of BENCHMARK.json at the repository root:
// the contract between this program and the driver that runs it.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDesc `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadDesc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// describe builds BENCHMARK.json's content from the program's own tables,
// so the file cannot drift from what the program emits.
func describe() benchmarkFile {
	b := benchmarkFile{
		Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"},
		RunSeconds: runSeconds, EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads() {
		b.Workloads = append(b.Workloads, workloadDesc{w.name, w.why})
	}
	return b
}

func writeDescription(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.SetEscapeHTML(false)
	return enc.Encode(describe())
}
