package tracing

// Mux multiplexes one Recorder — a traced platform's one recorder —
// across N tenant lanes. The cluster dispatcher switches the active lane
// at every dispatch boundary, so each event lands in the lane of the
// tenant that was running when it fired. Because exactly one tenant runs
// at a time (the cluster is a single-clock interleaving, not a parallel
// execution), a lane's events are exactly the events that tenant's own
// solo recorder would have seen in its dispatch windows — which is why
// per-lane Verify can hold bit-exact.
//
// Besides the tenant tag, the recorder context (iteration, kernel, hint)
// is itself per-tenant state: tenant A may be mid-kernel in iteration 3
// when the dispatcher switches to tenant B starting iteration 0. Switch
// saves the outgoing lane's context and restores the incoming lane's, so
// events keep their owner's context across arbitrary interleavings.
type Mux struct {
	rec    *Recorder
	lanes  []laneContext
	names  []string
	active int
}

// laneContext is the saved recorder context of one suspended lane.
type laneContext struct {
	iter   int
	kernel int
	kname  string
	hint   string
}

// NewMux creates a mux over a fresh recorder stamping the given
// virtual-time source.
func NewMux(now func() float64) *Mux {
	return &Mux{rec: New(now), active: -1}
}

// Recorder returns the underlying recorder — the value to attach to the
// platform and to hand to the active tenant's layers.
func (m *Mux) Recorder() *Recorder { return m.rec }

// Lane registers a tenant lane under the given name and returns its index.
func (m *Mux) Lane(name string) int {
	m.lanes = append(m.lanes, laneContext{iter: -1, kernel: -1})
	m.names = append(m.names, name)
	return len(m.lanes) - 1
}

// Switch makes lane i the active lane: subsequent events are tagged with
// its tenant name and stamped with its saved context. Switching to the
// already-active lane is a no-op.
func (m *Mux) Switch(i int) {
	if i == m.active {
		return
	}
	m.park()
	l := m.lanes[i]
	m.rec.iter, m.rec.kernel, m.rec.kname, m.rec.hint = l.iter, l.kernel, l.kname, l.hint
	m.rec.tenant = m.names[i]
	m.active = i
}

// park saves the active lane's context and detaches the recorder from any
// lane (events emitted while parked are untagged cluster-owned events).
func (m *Mux) park() {
	if m.active >= 0 {
		m.lanes[m.active] = laneContext{
			iter: m.rec.iter, kernel: m.rec.kernel, kname: m.rec.kname, hint: m.rec.hint,
		}
	}
	m.rec.iter, m.rec.kernel, m.rec.kname, m.rec.hint = -1, -1, "", ""
	m.rec.tenant = ""
	m.active = -1
}

// EmitCluster appends the trailing cluster record (untagged — it is
// cluster-owned, not any tenant's).
func (m *Mux) EmitCluster(c ClusterTotals) {
	m.park()
	m.rec.emit(Event{Kind: KindCluster, Cluster: &c})
}

// Events returns the recorded events across all lanes, in emission order.
func (m *Mux) Events() []Event { return m.rec.Events() }
