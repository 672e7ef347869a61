package cluster

import "container/heap"

// The dispatch loop's job is to repeatedly select the unfinished tenant
// with the lexicographically smallest (next, jobIndex) key. tenantHeap
// is the one production implementation: a container/heap priority
// queue, O(log N) per selection, pre-sized so the dispatch hot path
// performs zero allocations (pinned by TestDispatchQueueZeroAllocs).
//
// dispatchQueue is the seam the tests substitute through: dispatch_test.go
// keeps the pre-heap O(N) linear scan as the executable reference, and
// the differential and fuzz tests prove the heap reproduces its
// selection order — and therefore its results — byte for byte. The scan
// visits tenants in index order and only a strictly smaller timestamp
// displaces the incumbent, which is exactly the lexicographic
// (next, idx) minimum the heap orders by.
type dispatchQueue interface {
	// peek returns the tenant with the smallest (next, idx), or nil when
	// every tenant has finished.
	peek() *tenant
	// bumped restores order after the peeked tenant's next advanced.
	bumped()
	// remove drops the peeked tenant (it finished).
	remove()
}

// tenantHeap orders tenants by (next, idx). Only the root is ever
// mutated — the dispatch loop peeks the minimum, advances its timestamp
// and sifts it down in place (heap.Fix) or pops it — so no per-tenant
// position index is needed and no operation allocates.
type tenantHeap struct {
	ts []*tenant
}

func newTenantHeap(tenants []*tenant) *tenantHeap {
	h := &tenantHeap{ts: make([]*tenant, len(tenants))}
	copy(h.ts, tenants)
	heap.Init(h)
	return h
}

func (h *tenantHeap) Len() int { return len(h.ts) }

func (h *tenantHeap) Less(i, j int) bool {
	a, b := h.ts[i], h.ts[j]
	if a.next != b.next {
		return a.next < b.next
	}
	return a.idx < b.idx
}

func (h *tenantHeap) Swap(i, j int) { h.ts[i], h.ts[j] = h.ts[j], h.ts[i] }

// Push and Pop satisfy heap.Interface. The dispatch loop never grows the
// heap (every tenant is present from Init), and Pop shrinks the pre-sized
// slice in place, so neither allocates.
func (h *tenantHeap) Push(x any) { h.ts = append(h.ts, x.(*tenant)) }

func (h *tenantHeap) Pop() any {
	n := len(h.ts) - 1
	t := h.ts[n]
	h.ts[n] = nil
	h.ts = h.ts[:n]
	return t
}

func (h *tenantHeap) peek() *tenant {
	if len(h.ts) == 0 {
		return nil
	}
	return h.ts[0]
}

func (h *tenantHeap) bumped() { heap.Fix(h, 0) }

func (h *tenantHeap) remove() { heap.Pop(h) }
