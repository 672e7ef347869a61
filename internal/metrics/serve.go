package metrics

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// WritePrometheus renders the registry's most recent sample in Prometheus
// text exposition format. Series names get a "ca_" prefix; labels (e.g.
// `run="fig7-vgg-116"`) are appended verbatim when non-empty.
//
// Only *sampled* values are served — the source closures read live
// simulator state and may only run on the simulation goroutine, so the
// HTTP goroutine reads the last snapshot instead. A watched value is
// therefore at most one sampling interval (of virtual time) stale.
func (r *Registry) WritePrometheus(w io.Writer, labels string) {
	if r == nil {
		return
	}
	lbl := ""
	if labels != "" {
		lbl = "{" + labels + "}"
	}
	r.mu.Lock()
	cols := r.sortedCols()
	type lastVal struct {
		name string
		kind Kind
		v    float64
	}
	vals := make([]lastVal, 0, len(cols))
	for _, c := range cols {
		var v float64
		if n := len(c.samples); n > 0 {
			v = c.samples[n-1]
		}
		vals = append(vals, lastVal{c.name, c.kind, v})
	}
	hists := append([]*Histogram(nil), r.hists...)
	r.mu.Unlock()

	for _, lv := range vals {
		fmt.Fprintf(w, "# TYPE ca_%s %s\n", lv.name, lv.kind)
		fmt.Fprintf(w, "ca_%s%s %s\n", lv.name, lbl, strconv.FormatFloat(lv.v, 'g', -1, 64))
	}
	for _, h := range hists {
		s := h.snapshot()
		fmt.Fprintf(w, "# TYPE ca_%s_bucket gauge\n", h.name)
		keys := make([]string, 0, len(s.Buckets))
		for k := range s.Buckets {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, _ := strconv.ParseFloat(keys[i], 64)
			b, _ := strconv.ParseFloat(keys[j], 64)
			return a < b
		})
		inner := ""
		if labels != "" {
			inner = labels + ","
		}
		// Buckets are keyed by their power-of-two *lower* bound (the
		// "ge" label), unlike Prometheus's cumulative "le" convention —
		// these are per-bucket counts for human inspection, not for
		// PromQL quantile math.
		for _, k := range keys {
			fmt.Fprintf(w, "ca_%s_bucket{%sge=%q} %d\n", h.name, inner, k, s.Buckets[k])
		}
	}
}

// SafeName builds a run name or tenant label from parts: lowered, with
// anything outside [a-z0-9.-] folded to '_', joined by '-'. The result is
// safe as a hub key, a Prometheus label value, a wide-CSV header, a trace
// lane and an output-file suffix (commas and spaces in particular would
// corrupt the label strings and CSV headers), so every package that names
// a run or a tenant uses this one alphabet and the names agree.
func SafeName(parts ...string) string {
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte('-')
		}
		for _, r := range strings.ToLower(p) {
			switch {
			case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.':
				b.WriteRune(r)
			default:
				b.WriteByte('_')
			}
		}
	}
	return b.String()
}

// Hub serves one or more runs' registries over HTTP: /metrics in
// Prometheus text format (one run label per registry) and /debug/vars via
// the standard expvar handler, which includes a "cametrics" variable
// holding every run's JSON summary.
type Hub struct {
	mu   sync.Mutex
	keys []string // registration order
	runs map[string]*Registry
	// labels holds explicit Prometheus label strings for registries
	// registered via RegisterLabeled (e.g. `run="cluster",tenant="mix0"`);
	// they are served verbatim, overriding the default run label.
	labels map[string]string
}

// activeHub is the hub the process-wide expvar variable reads from; the
// most recently created hub wins (one command creates at most one).
var (
	activeHub  atomic.Pointer[Hub]
	expvarOnce sync.Once
)

// NewHub creates a hub and points the process's expvar "cametrics"
// variable at it.
func NewHub() *Hub {
	h := &Hub{runs: map[string]*Registry{}}
	activeHub.Store(h)
	expvarOnce.Do(func() {
		expvar.Publish("cametrics", expvar.Func(func() any {
			hub := activeHub.Load()
			if hub == nil {
				return nil
			}
			return hub.Summaries()
		}))
	})
	return h
}

// Register adds a run's registry under a name. Re-registering a name
// replaces it (multi-run commands reuse budget names across models only
// when the caller composes unique names).
func (h *Hub) Register(name string, r *Registry) {
	if h == nil || r == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.runs[name]; !ok {
		h.keys = append(h.keys, name)
	}
	h.runs[name] = r
}

// RegisterLabeled adds a run's registry with an explicit Prometheus label
// string (rendered verbatim inside {...} on every series), overriding the
// default run label. The cluster registers per-tenant registries this way
// so the endpoint serves `run="...",tenant="..."`-labeled series.
func (h *Hub) RegisterLabeled(name, labels string, r *Registry) {
	if h == nil || r == nil {
		return
	}
	h.Register(name, r)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.labels == nil {
		h.labels = map[string]string{}
	}
	h.labels[name] = labels
}

// Summaries returns every registered run's summary, keyed by run name.
func (h *Hub) Summaries() map[string]*Summary {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]*Summary, len(h.runs))
	for name, r := range h.runs {
		out[name] = r.Summarize()
	}
	return out
}

// Handler returns the hub's HTTP mux: / (index), /metrics (Prometheus
// text), /debug/vars (expvar JSON).
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		h.mu.Lock()
		keys := append([]string(nil), h.keys...)
		h.mu.Unlock()
		fmt.Fprintf(w, "cachedarrays metrics — %d run(s)\n", len(keys))
		for _, k := range keys {
			fmt.Fprintf(w, "  %s\n", k)
		}
		fmt.Fprintln(w, "endpoints: /metrics (Prometheus text), /debug/vars (expvar)")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		h.mu.Lock()
		keys := append([]string(nil), h.keys...)
		runs := make([]*Registry, len(keys))
		lbls := make([]string, len(keys))
		for i, k := range keys {
			runs[i] = h.runs[k]
			lbls[i] = h.labels[k]
		}
		single := len(keys) == 1
		h.mu.Unlock()
		for i, r := range runs {
			labels := lbls[i]
			if labels == "" && !single {
				labels = fmt.Sprintf("run=%q", keys[i])
			}
			r.WritePrometheus(w, labels)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
