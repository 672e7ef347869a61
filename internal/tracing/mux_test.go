package tracing

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// clusterFixture builds a hand-made two-lane multiplexed trace (plus a
// third lane whose mode traces no aggregates) whose per-lane totals and
// trailing cluster record are all consistent.
func clusterFixture() []Event {
	m := NewMux(func() float64 { return 0 })
	a := m.Lane("a")
	b := m.Lane("b")
	c := m.Lane("c")
	r := m.Recorder()

	// Tenant a: one eviction, one traced kernel.
	m.Switch(a)
	r.BeginIter(0)
	r.BeginKernel(0, "k0")
	r.Xfer("dram", "nvram", 100, 0, 1, 4, 2, 0, 0)
	r.Copy(1, 100, "fast", "slow", 0, 1)
	r.Stall("hint", 0, 1.0)
	r.Kernel(1, 2, 0.7)
	r.KernelIO("dram", 40, 0)
	r.KernelIO("nvram", 0, 10)

	// Tenant b: one prefetch, mid a's kernel.
	m.Switch(b)
	r.BeginIter(0)
	r.Xfer("nvram", "dram", 50, 1, 2, 4, 4, 0, 0)
	r.Copy(2, 50, "slow", "fast", 1, 2)
	r.Stall("drain", 0, 0.5)
	r.EmitTotals(Totals{
		Copies:          1,
		BytesSlowToFast: 50,
		FastDevice:      "dram",
		SlowDevice:      "nvram",
		FastWriteBytes:  50,
		SlowReadBytes:   50,
		MoveTimeByIter:  []float64{0.5},
	})

	// Tenant c runs a mode that traces nothing engine-side; the mux still
	// tags the platform's clock advances with its lane.
	m.Switch(c)
	r.OnAdvance(1, 1)

	// Back to a for its finish.
	m.Switch(a)
	r.EndKernel()
	r.EmitTotals(Totals{
		Copies:          1,
		BytesFastToSlow: 100,
		FastDevice:      "dram",
		SlowDevice:      "nvram",
		FastReadBytes:   140, // xfer 100 + kernel 40
		SlowWriteBytes:  110, // xfer 100 + kernel 10
		MoveTimeByIter:  []float64{1.0},
	})

	m.EmitCluster(ClusterTotals{
		Tenants: []TenantTotals{
			{Name: "a", Mode: "CA:LM", FastReadBytes: 140, SlowWriteBytes: 110},
			{Name: "b", Mode: "CA:LM", FastWriteBytes: 50, SlowReadBytes: 50},
			{Name: "c", Mode: "OS:page"},
		},
		FastDevice:     "dram",
		SlowDevice:     "nvram",
		FastReadBytes:  140,
		FastWriteBytes: 50,
		SlowReadBytes:  50,
		SlowWriteBytes: 110,
	})
	return m.Events()
}

// TestMuxTagsAndRestoresContext: events land in the active lane with that
// lane's saved iteration/kernel/hint context, across arbitrary switches.
func TestMuxTagsAndRestoresContext(t *testing.T) {
	m := NewMux(func() float64 { return 0 })
	a := m.Lane("a")
	b := m.Lane("b")
	r := m.Recorder()

	m.Switch(a)
	r.BeginIter(2)
	r.BeginKernel(7, "conv3")
	r.SetHint("will_write")
	r.Copy(1, 64, "slow", "fast", 0, 1)

	m.Switch(b)
	r.Copy(2, 32, "fast", "slow", 1, 2)

	m.Switch(a)
	m.Switch(a) // switching to the active lane is a no-op
	r.Copy(3, 16, "slow", "fast", 2, 3)

	m.EmitCluster(ClusterTotals{})
	ev := m.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events", len(ev))
	}
	// a's first event carries its full context.
	if ev[0].Tenant != "a" || ev[0].Iter != 2 || ev[0].Kernel != 7 ||
		ev[0].KName != "conv3" || ev[0].Cause != "will_write" {
		t.Errorf("lane a event: %+v", ev[0])
	}
	// b never began an iteration: fresh context, its own tag.
	if ev[1].Tenant != "b" || ev[1].Iter != -1 || ev[1].Kernel != -1 ||
		ev[1].KName != "" || ev[1].Cause != "" {
		t.Errorf("lane b event: %+v", ev[1])
	}
	// Switching back restores a's mid-kernel context exactly.
	if ev[2].Tenant != "a" || ev[2].Iter != 2 || ev[2].Kernel != 7 ||
		ev[2].KName != "conv3" || ev[2].Cause != "will_write" {
		t.Errorf("lane a resumed event: %+v", ev[2])
	}
	// The cluster record is cluster-owned, not any tenant's.
	if ev[3].Tenant != "" || ev[3].Kind != KindCluster || ev[3].Cluster == nil {
		t.Errorf("cluster record: %+v", ev[3])
	}
}

func TestVerifyLanesAcceptsFixture(t *testing.T) {
	if err := VerifyLanes(clusterFixture()); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyLanesUntaggedDefersToVerify: a solo trace passes through
// VerifyLanes unchanged, so callers need not know which kind they hold.
func TestVerifyLanesUntaggedDefersToVerify(t *testing.T) {
	if err := VerifyLanes(traceFixture()); err != nil {
		t.Fatal(err)
	}
	solo := traceFixture()
	solo[len(solo)-1].Totals.Copies++
	if err := VerifyLanes(solo); err == nil {
		t.Fatal("tampered solo trace verified clean")
	}
}

// TestVerifyLanesCatchesTampering hits each check: lane-vs-attribution,
// the platform partition sum, and the missing cluster record.
func TestVerifyLanesCatchesTampering(t *testing.T) {
	tamperCluster := func(f func(*ClusterTotals)) []Event {
		events := clusterFixture()
		i := len(events) - 1
		c := *events[i].Cluster
		c.Tenants = append([]TenantTotals(nil), c.Tenants...)
		f(&c)
		events[i].Cluster = &c
		return events
	}

	// A tenant's attributed traffic disagrees with its own lane totals.
	events := tamperCluster(func(c *ClusterTotals) {
		c.Tenants[0].FastReadBytes++
		c.FastReadBytes++ // keep the partition consistent
	})
	if err := VerifyLanes(events); err == nil ||
		!strings.Contains(err.Error(), "cluster attribution") {
		t.Errorf("attribution tamper: %v", err)
	}

	// The tenants no longer partition the platform counters.
	events = tamperCluster(func(c *ClusterTotals) { c.SlowWriteBytes++ })
	if err := VerifyLanes(events); err == nil ||
		!strings.Contains(err.Error(), "tenants sum to") {
		t.Errorf("partition tamper: %v", err)
	}

	// A tagged lane with no tenant record in the cluster totals.
	events = tamperCluster(func(c *ClusterTotals) { c.Tenants = c.Tenants[:2] })
	if err := VerifyLanes(events); err == nil ||
		!strings.Contains(err.Error(), "no tenant record") {
		t.Errorf("missing tenant: %v", err)
	}

	// A lane's own events no longer match its totals record.
	events = clusterFixture()
	for i := range events {
		if events[i].Tenant == "b" && events[i].Kind == KindCopy {
			events[i].Bytes++
		}
	}
	if err := VerifyLanes(events); err == nil ||
		!strings.Contains(err.Error(), `lane "b"`) {
		t.Errorf("lane tamper: %v", err)
	}

	// Tagged events without a trailing cluster record.
	events = clusterFixture()
	if err := VerifyLanes(events[:len(events)-1]); err == nil ||
		!strings.Contains(err.Error(), "no cluster record") {
		t.Errorf("missing cluster record: %v", err)
	}
}

// TestLanesSplit pins the lane split: first-seen name order, per-lane
// event order preserved, untagged events dropped.
func TestLanesSplit(t *testing.T) {
	names, lanes := Lanes(clusterFixture())
	if !reflect.DeepEqual(names, []string{"a", "b", "c"}) {
		t.Fatalf("names = %v", names)
	}
	if n := len(lanes["c"]); n != 1 {
		t.Errorf("lane c has %d events, want 1 clock advance", n)
	}
	for name, lane := range lanes {
		for _, e := range lane {
			if e.Tenant != name {
				t.Errorf("lane %q holds a %q event", name, e.Tenant)
			}
		}
	}
	if n, _ := Lanes(traceFixture()); n != nil {
		t.Errorf("solo trace produced lanes: %v", n)
	}
}

// TestClusterJSONLRoundTrip: tenant tags and the cluster record survive
// the JSONL cycle losslessly, so a loaded file re-verifies per lane.
func TestClusterJSONLRoundTrip(t *testing.T) {
	events := clusterFixture()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatalf("round trip diverged:\n want %+v\n got  %+v", events, got)
	}
	if err := VerifyLanes(got); err != nil {
		t.Fatalf("re-loaded cluster trace fails verification: %v", err)
	}
}

// TestChromeClusterLayout: a tagged trace renders one process per tenant
// plus the shared platform tracks with owner-prefixed transfer spans.
func TestChromeClusterLayout(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, clusterFixture()); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("cluster chrome export is not valid JSON: %v", err)
	}
	procs := map[string]bool{}
	var ownedCopies int
	for _, e := range file.TraceEvents {
		if e.Name == "process_name" {
			procs[e.Args["name"].(string)] = true
		}
		if e.Pid == pidPlatform && strings.HasPrefix(e.Name, "a: copy ") {
			ownedCopies++
		}
	}
	for _, want := range []string{"platform (shared)", "tenant a", "tenant b"} {
		if !procs[want] {
			t.Errorf("missing process %q (have %v)", want, procs)
		}
	}
	if ownedCopies == 0 {
		t.Error("shared device track lost transfer ownership prefixes")
	}
}
