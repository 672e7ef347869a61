package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. High-rate calls are aggregated: Count says how many calls the
// span stands for.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the trace began
	EndNS    int64  `json:"end_ns"`
	Count    int64  `json:"count"`
}

// spans keeps the traced run's spans in memory until the run ends. A nil
// *spans records nothing and costs a nil check, the same discipline as
// the simulator's own tracer; that is what the untraced run passes.
type spans struct {
	mu       sync.Mutex // suite cells complete on scheduler workers
	t0       time.Time
	workload string
	list     []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list)
	s.list = append(s.list, span{ID: id, Parent: parent, Workload: s.workload, Name: name,
		StartNS: time.Since(s.t0).Nanoseconds()})
	return id
}

// end closes a span, recording how many calls it covered.
func (s *spans) end(id int, count int64) {
	if s == nil {
		return
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list[id].EndNS = now
	s.list[id].Count = count
}

// write emits the span file: one JSON document, spans in start order.
func (s *spans) write(w io.Writer, env envStamp) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Env   envStamp `json:"env"`
		Spans []span   `json:"spans"`
	}{env, s.list})
}

// coverage returns the share of span id's duration that its direct
// children cover (overlapping children counted once).
func (s *spans) coverage(id int) float64 {
	p := s.list[id]
	if p.EndNS <= p.StartNS {
		return 1
	}
	return float64(s.covered(id)) / float64(p.EndNS-p.StartNS)
}

// selfNS is a span's duration minus the part its children cover.
func (s *spans) selfNS(id int) int64 {
	p := s.list[id]
	return p.EndNS - p.StartNS - s.covered(id)
}

// covered is the length of the union of id's direct children's
// intervals, clipped to id's own.
func (s *spans) covered(id int) int64 {
	p := s.list[id]
	type iv struct{ a, b int64 }
	var kids []iv
	for _, c := range s.list {
		if c.Parent != id {
			continue
		}
		a, b := c.StartNS, c.EndNS
		if a < p.StartNS {
			a = p.StartNS
		}
		if b > p.EndNS {
			b = p.EndNS
		}
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	var total, edge int64
	edge = p.StartNS
	for _, k := range kids {
		if k.a < edge {
			k.a = edge
		}
		if k.b > k.a {
			total += k.b - k.a
			edge = k.b
		}
	}
	return total
}

// selfByName sums self time per span name under one root: the per-layer
// view of where a composed run's host time went.
func (s *spans) selfByName(root int) map[string]int64 {
	under := map[int]bool{root: true}
	out := map[string]int64{}
	for _, c := range s.list { // parents precede children
		if c.ID != root && !under[c.Parent] {
			continue
		}
		under[c.ID] = true
		out[c.Name] += s.selfNS(c.ID)
	}
	return out
}
