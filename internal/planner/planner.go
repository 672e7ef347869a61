// Package planner implements a static, ahead-of-time data-placement
// planner in the style of AutoTM (Hildebrand et al., ASPLOS'20) — the
// "Compiler" row of the paper's Table I. Given the full kernel schedule
// and tensor liveness up front (which CNN training provides), it decides
// offline, per tensor, one of three placements:
//
//   - FastAlways: live in DRAM for the tensor's whole lifetime;
//   - Offload: live in DRAM while hot, synchronously evict to NVRAM
//     across the forward/backward gap, prefetch back before reuse (the
//     classic vDNN/AutoTM offload pattern);
//   - SlowAlways: live in NVRAM, accessed in place.
//
// AutoTM solves this with an ILP; this implementation uses the standard
// greedy relaxation (benefit-density ordering against a per-step capacity
// timeline), which reaches the same placements on these workloads'
// strongly bimodal tensors.
//
// The point of carrying this baseline is the paper's §II argument: static
// planning works when "the workloads' reuse patterns" are regular (CNNs),
// and cannot adapt when they are not (DLRM — see the experiments package,
// where the static placement collapses after the first locality shift).
package planner

import (
	"fmt"
	"sort"

	"cachedarrays/internal/models"
)

// Placement is a tensor's planned residency.
type Placement int

const (
	// SlowAlways keeps the tensor in NVRAM for its whole life.
	SlowAlways Placement = iota
	// FastAlways keeps the tensor in DRAM for its whole life.
	FastAlways
	// Offload holds the tensor in DRAM while in use, parks it in NVRAM
	// across its idle gap, and restores it before reuse.
	Offload
)

func (p Placement) String() string {
	switch p {
	case SlowAlways:
		return "slow"
	case FastAlways:
		return "fast"
	case Offload:
		return "offload"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Plan is the static placement decision set for one model.
type Plan struct {
	Placement []Placement
	// OffloadAfter[t] / RestoreBefore[t] bound tensor t's parked
	// interval (kernel indices) when Placement[t] == Offload.
	OffloadAfter  []int
	RestoreBefore []int
	// FastBytesPeak is the planned peak DRAM usage (must be <= budget).
	FastBytesPeak int64
}

// CostModel supplies the per-byte costs the planner optimizes against.
// Units are arbitrary (seconds/byte); only ratios matter.
type CostModel struct {
	// SlowReadPenalty is the extra cost of reading one byte from NVRAM
	// instead of DRAM (kernel in-place access).
	SlowReadPenalty float64
	// SlowWritePenalty is the write-side counterpart (large: regular
	// stores to NVRAM are the scarce resource).
	SlowWritePenalty float64
	// MoveCost is the cost of moving one byte between tiers (the
	// offload pattern pays it twice).
	MoveCost float64
}

// DefaultCostModel mirrors the platform model's bandwidth ratios.
func DefaultCostModel() CostModel {
	return CostModel{
		SlowReadPenalty:  1.0/23e9 - 1.0/65e9,  // in-place read: NVRAM vs DRAM
		SlowWritePenalty: 1.0/5.6e9 - 1.0/55e9, // in-place write: NVRAM vs DRAM
		MoveCost:         1.0 / 11e9,           // shaped copy, read+write overlapped
	}
}

// tensorInfo aggregates what the greedy pass needs per tensor.
type tensorInfo struct {
	id            int
	bytes         int64
	first, last   int
	readBytes     float64 // rf-weighted bytes read over all kernels
	writeBytes    float64
	gapStart      int // last use before the largest idle gap
	gapEnd        int // first use after it
	gapLen        int
	benefitAlways float64 // stall avoided by FastAlways vs SlowAlways
}

// Build computes a plan for the model against a DRAM budget.
func Build(m *models.Model, fastBudget int64, cm CostModel) *Plan {
	n := len(m.Tensors)
	steps := len(m.Kernels)
	plan := &Plan{
		Placement:     make([]Placement, n),
		OffloadAfter:  make([]int, n),
		RestoreBefore: make([]int, n),
	}
	infos := make([]*tensorInfo, n)
	for id := range m.Tensors {
		infos[id] = &tensorInfo{id: id, bytes: m.Tensors[id].Bytes, first: steps, last: -1}
	}
	// Use points and traffic.
	uses := make([][]int, n)
	for ki := range m.Kernels {
		k := &m.Kernels[ki]
		rf := k.EffectiveReadFactor()
		for _, id := range k.Reads {
			ti := infos[id]
			f := 1.0
			if m.Tensors[id].Kind == models.Activation || m.Tensors[id].Kind == models.Input {
				f = rf
			}
			// float64() rounds the product: no fused multiply-add on any GOARCH.
			ti.readBytes += float64(f * float64(ti.bytes))
			uses[id] = append(uses[id], ki)
		}
		for _, id := range k.Writes {
			infos[id].writeBytes += float64(infos[id].bytes)
			uses[id] = append(uses[id], ki)
		}
	}
	for id, us := range uses {
		ti := infos[id]
		if len(us) == 0 {
			continue
		}
		ti.first, ti.last = us[0], us[len(us)-1]
		// Largest idle gap between consecutive uses.
		for i := 1; i < len(us); i++ {
			if g := us[i] - us[i-1]; g > ti.gapLen {
				ti.gapLen = g
				ti.gapStart = us[i-1]
				ti.gapEnd = us[i]
			}
		}
		// float64() rounds each product: no fused multiply-add on any GOARCH.
		ti.benefitAlways = float64(ti.readBytes*cm.SlowReadPenalty) + float64(ti.writeBytes*cm.SlowWritePenalty)
	}

	// Greedy: order by benefit density, claim capacity on a per-step
	// timeline.
	order := make([]*tensorInfo, 0, n)
	for _, ti := range infos {
		if ti.last >= 0 {
			order = append(order, ti)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		return order[i].benefitAlways/float64(order[i].bytes) >
			order[j].benefitAlways/float64(order[j].bytes)
	})
	capUsed := make([]int64, steps)
	claim := func(from, to int, bytes int64) bool {
		for s := from; s <= to; s++ {
			if capUsed[s]+bytes > fastBudget {
				return false
			}
		}
		for s := from; s <= to; s++ {
			capUsed[s] += bytes
		}
		return true
	}
	const minOffloadGap = 8 // shorter gaps are not worth two copies
	for _, ti := range order {
		if claim(ti.first, ti.last, ti.bytes) {
			plan.Placement[ti.id] = FastAlways
			continue
		}
		// Try the offload pattern: resident only outside the big gap.
		if ti.gapLen >= minOffloadGap {
			// Offload still pays two moves; require the residency
			// benefit to cover them.
			if ti.benefitAlways <= 2*float64(ti.bytes)*cm.MoveCost {
				continue
			}
			okA := claim(ti.first, ti.gapStart, ti.bytes)
			okB := okA && claim(ti.gapEnd, ti.last, ti.bytes)
			if okA && !okB {
				// Roll back the first half.
				for s := ti.first; s <= ti.gapStart; s++ {
					capUsed[s] -= ti.bytes
				}
			}
			if okA && okB {
				plan.Placement[ti.id] = Offload
				plan.OffloadAfter[ti.id] = ti.gapStart
				plan.RestoreBefore[ti.id] = ti.gapEnd
			}
		}
	}
	for _, u := range capUsed {
		if u > plan.FastBytesPeak {
			plan.FastBytesPeak = u
		}
	}
	return plan
}

// Counts summarizes a plan.
func (p *Plan) Counts() (fast, offload, slow int) {
	for _, pl := range p.Placement {
		switch pl {
		case FastAlways:
			fast++
		case Offload:
			offload++
		default:
			slow++
		}
	}
	return
}
