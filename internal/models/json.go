package models

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// The JSON workload format lets users drive the harness with their own
// kernel traces — any application following the kernel programming model
// (§III-C) can be profiled once, exported, and replayed against every
// operating mode and platform this repository implements.
//
// Schema:
//
//	{
//	  "name": "myapp",
//	  "batchSize": 1,
//	  "tensors": [{"name": "w0", "bytes": 4096, "kind": "weight"}, ...],
//	  "kernels": [{"name": "k0", "phase": "forward",
//	               "reads": [0], "writes": [1],
//	               "flops": 1e9, "readFactor": 1}, ...]
//	}

type jsonTensor struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
	Kind  string `json:"kind"`
}

type jsonKernel struct {
	Name       string  `json:"name"`
	Phase      string  `json:"phase"`
	Reads      []int   `json:"reads"`
	Writes     []int   `json:"writes"`
	FLOPs      float64 `json:"flops"`
	ReadFactor float64 `json:"readFactor,omitempty"`
}

type jsonModel struct {
	Name      string       `json:"name"`
	BatchSize int          `json:"batchSize"`
	Tensors   []jsonTensor `json:"tensors"`
	Kernels   []jsonKernel `json:"kernels"`
}

// kindNames maps the schema's kind strings to kinds; SaveJSON writes
// TensorKind.String(), so the two must agree (TestKindNamesMatchString).
var kindNames = map[string]TensorKind{
	"weight":          Weight,
	"weight-grad":     WeightGrad,
	"activation":      Activation,
	"activation-grad": ActivationGrad,
	"input":           Input,
}

// LoadJSON reads a workload model from JSON and validates it.
func LoadJSON(r io.Reader) (*Model, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var jm jsonModel
	if err := dec.Decode(&jm); err != nil {
		return nil, fmt.Errorf("models: decoding workload JSON: %w", err)
	}
	m := &Model{Name: jm.Name, BatchSize: jm.BatchSize}
	if m.Name == "" {
		m.Name = "workload"
	}
	if m.BatchSize == 0 {
		m.BatchSize = 1
	}
	for i, jt := range jm.Tensors {
		kind, ok := kindNames[strings.ToLower(jt.Kind)]
		if !ok {
			return nil, fmt.Errorf("models: tensor %d (%s): unknown kind %q", i, jt.Name, jt.Kind)
		}
		m.Tensors = append(m.Tensors, Tensor{ID: i, Name: jt.Name, Bytes: jt.Bytes, Kind: kind})
	}
	for i, jk := range jm.Kernels {
		var phase Phase
		switch strings.ToLower(jk.Phase) {
		case "forward", "":
			phase = Forward
		case "backward":
			phase = Backward
		default:
			return nil, fmt.Errorf("models: kernel %d (%s): unknown phase %q", i, jk.Name, jk.Phase)
		}
		m.Kernels = append(m.Kernels, Kernel{
			Name:       jk.Name,
			Phase:      phase,
			Reads:      jk.Reads,
			Writes:     jk.Writes,
			FLOPs:      jk.FLOPs,
			ReadFactor: jk.ReadFactor,
		})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveJSON writes the model in the workload JSON format.
func (m *Model) SaveJSON(w io.Writer) error {
	jm := jsonModel{Name: m.Name, BatchSize: m.BatchSize}
	for i := range m.Tensors {
		t := &m.Tensors[i]
		jm.Tensors = append(jm.Tensors, jsonTensor{Name: t.Name, Bytes: t.Bytes, Kind: t.Kind.String()})
	}
	for i := range m.Kernels {
		k := &m.Kernels[i]
		jm.Kernels = append(jm.Kernels, jsonKernel{
			Name:       k.Name,
			Phase:      strings.ToLower(k.Phase.String()),
			Reads:      k.Reads,
			Writes:     k.Writes,
			FLOPs:      k.FLOPs,
			ReadFactor: k.ReadFactor,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jm)
}
