package pagemig

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"

	"cachedarrays/internal/memsim"
)

// epochReference is Epoch as it stood before the candidate buffers, the
// touched-page bound and the lazy sort: fresh slices every call, a scan
// and a decay over every page, sort.Slice. The differential tests below
// hold Epoch to it bit for bit — including which members of a group of
// equally hot pages end up on which side of a cut-off, which only the two
// sorts making the same swaps can guarantee.
func (m *Migrator) epochReference() float64 {
	m.stats.Epochs++
	type cand struct {
		pg  int64
		hot float64
	}
	var slowHot, fastCold []cand
	for pg := int64(0); pg < m.numPages; pg++ {
		if m.hot[pg] > 0 && !m.inFast[pg] {
			slowHot = append(slowHot, cand{pg, m.hot[pg]})
		} else if m.inFast[pg] {
			fastCold = append(fastCold, cand{pg, m.hot[pg]})
		}
	}
	sort.Slice(slowHot, func(i, j int) bool { return slowHot[i].hot > slowHot[j].hot })
	sort.Slice(fastCold, func(i, j int) bool { return fastCold[i].hot < fastCold[j].hot })

	var elapsed float64
	var moved int64
	budget := m.cfg.MaxMigrateBytes
	ci := 0
	for _, s := range slowHot {
		if budget > 0 && moved >= budget {
			break
		}
		if m.fastUsed < m.fastQuota {
			// Free DRAM: promotion costs one page copy up.
			elapsed += m.copier.Copy(m.fast, 0, m.slow, s.pg*m.cfg.PageSize%m.slow.Capacity, m.cfg.PageSize)
			m.inFast[s.pg] = true
			m.fastUsed++
			m.stats.Promotions++
			m.stats.PromotedBytes += m.cfg.PageSize
			moved += m.cfg.PageSize
			continue
		}
		// Must displace the coldest fast page — only worth it with a
		// hotness margin.
		if ci >= len(fastCold) {
			break
		}
		victim := fastCold[ci]
		if s.hot < victim.hot*m.cfg.PromoteMargin+1 {
			break // remaining candidates are colder still
		}
		ci++
		// Demote victim (fast -> slow), promote candidate.
		elapsed += m.copier.Copy(m.slow, victim.pg*m.cfg.PageSize%m.slow.Capacity, m.fast, 0, m.cfg.PageSize)
		elapsed += m.copier.Copy(m.fast, 0, m.slow, s.pg*m.cfg.PageSize%m.slow.Capacity, m.cfg.PageSize)
		m.inFast[victim.pg] = false
		m.inFast[s.pg] = true
		m.stats.Demotions++
		m.stats.Promotions++
		m.stats.DemotedBytes += m.cfg.PageSize
		m.stats.PromotedBytes += m.cfg.PageSize
		moved += 2 * m.cfg.PageSize
	}
	for pg := range m.hot {
		m.hot[pg] *= m.cfg.Decay
	}
	m.stats.MigrateTime += elapsed
	return elapsed
}

// hotterFirst and colderFirst are the orders Epoch's two candidate lists
// come out in, as slices.SortFunc comparators: hotness alone, equally hot
// pages equal. hotOrder is held to slices.SortFunc under them prefix by
// prefix (hotorder_test.go).
func hotterFirst(a, b cand) int {
	switch {
	case a.hot > b.hot:
		return -1
	case a.hot < b.hot:
		return 1
	}
	return 0
}

func colderFirst(a, b cand) int { return hotterFirst(b, a) }

const diffPage = 4096

// coverage records which of Epoch's regimes a set of streams reached, so
// a generator that drifts away from one fails the test instead of
// quietly testing less.
type coverage struct {
	freePhase    bool // promotions into free DRAM
	displacement bool // demotions
	budgetCut    bool // an epoch stopped at MaxMigrateBytes
	hysteresis   bool // stopped short of the budget with hot slow pages and victims left
	tieStraddle  bool // >= 1000 equally hot pages, some promoted and some left behind
}

// diffPair drives Epoch and epochReference through one access stream on
// two separate platforms and compares everything observable after every
// epoch.
type diffPair struct {
	t        testing.TB
	got, ref *Migrator
	gp, rp   *memsim.Platform
	cov      *coverage
	epochs   int
}

func newDiffPair(t testing.TB, fastPages, slowPages int64, cfg Config, cov *coverage) *diffPair {
	t.Helper()
	d := &diffPair{t: t, cov: cov}
	d.got, d.gp = newMig(t, fastPages*cfg.PageSize, slowPages*cfg.PageSize, cfg)
	d.ref, d.rp = newMig(t, fastPages*cfg.PageSize, slowPages*cfg.PageSize, cfg)
	return d
}

func (d *diffPair) access(addr, size int64, write bool) {
	g := d.got.Access(addr, size, write, seqAccess)
	r := d.ref.Access(addr, size, write, seqAccess)
	if g != r {
		d.t.Fatalf("Access(%d, %d, %v): %+v vs reference %+v", addr, size, write, g, r)
	}
}

func (d *diffPair) epoch() {
	d.t.Helper()
	before := d.ref.stats
	var wasFast []bool
	if d.cov != nil {
		wasFast = append(wasFast, d.ref.inFast...)
	}
	hadFree := d.ref.fastUsed < d.ref.fastQuota

	g, r := d.got.Epoch(), d.ref.epochReference()
	d.epochs++
	if g != r {
		d.t.Fatalf("epoch %d: elapsed %v vs reference %v", d.epochs, g, r)
	}
	if d.got.stats != d.ref.stats {
		d.t.Fatalf("epoch %d: stats %+v vs reference %+v", d.epochs, d.got.stats, d.ref.stats)
	}
	if d.got.fastUsed != d.ref.fastUsed {
		d.t.Fatalf("epoch %d: fastUsed %d vs reference %d", d.epochs, d.got.fastUsed, d.ref.fastUsed)
	}
	for pg := range d.ref.inFast {
		if d.got.inFast[pg] != d.ref.inFast[pg] || d.got.hot[pg] != d.ref.hot[pg] {
			d.t.Fatalf("epoch %d: page %d is (fast %v, hot %v), reference (fast %v, hot %v)", d.epochs, pg,
				d.got.inFast[pg], d.got.hot[pg], d.ref.inFast[pg], d.ref.hot[pg])
		}
	}
	if a, b := d.gp.Fast.Counters(), d.rp.Fast.Counters(); a != b {
		d.t.Fatalf("epoch %d: fast traffic %+v vs reference %+v", d.epochs, a, b)
	}
	if a, b := d.gp.Slow.Counters(), d.rp.Slow.Counters(); a != b {
		d.t.Fatalf("epoch %d: slow traffic %+v vs reference %+v", d.epochs, a, b)
	}
	if a, b := d.gp.Clock.Now(), d.rp.Clock.Now(); a != b {
		d.t.Fatalf("epoch %d: clock %v vs reference %v", d.epochs, a, b)
	}
	if d.cov != nil {
		d.cover(before, wasFast, hadFree)
	}
}

// cover classifies the epoch just run from the reference's state.
func (d *diffPair) cover(before Stats, wasFast []bool, hadFree bool) {
	m, c := d.ref, d.cov
	promoted := m.stats.Promotions - before.Promotions
	demoted := m.stats.Demotions - before.Demotions
	moved := m.stats.PromotedBytes - before.PromotedBytes + m.stats.DemotedBytes - before.DemotedBytes
	if hadFree && promoted > demoted {
		c.freePhase = true
	}
	if demoted > 0 {
		c.displacement = true
	}
	cut := m.cfg.MaxMigrateBytes > 0 && moved >= m.cfg.MaxMigrateBytes
	if cut {
		c.budgetCut = true
	}
	// Hotness has decayed since the scan, but equal stays equal and
	// positive stays positive at these magnitudes.
	newly := map[float64]int{}
	left := map[float64]int{}
	slowHot := false
	var victims int64
	for pg, fast := range m.inFast {
		if wasFast[pg] {
			victims++
		}
		switch {
		case fast && !wasFast[pg]:
			newly[m.hot[pg]]++
		case !fast && !wasFast[pg] && m.hot[pg] > 0:
			left[m.hot[pg]]++
			slowHot = true
		}
	}
	if slowHot && !cut && m.fastUsed == m.fastQuota && demoted < victims {
		c.hysteresis = true
	}
	for h, n := range newly {
		if l := left[h]; l > 0 && n+l >= 1000 {
			c.tieStraddle = true
		}
	}
}

// tensorStream replays a seeded training-like stream: whole-tensor
// accesses (every page of a tensor gets the same hotness, so candidates
// arrive in tie groups thousands of pages long), tensors freed and new
// ones placed at other addresses, an epoch every few accesses.
func tensorStream(d *diffPair, seed int64, epochs int) {
	rng := rand.New(rand.NewSource(seed))
	slowPages := d.ref.numPages
	type tensor struct{ addr, size int64 }
	var live []tensor
	place := func() {
		pages := 1 + rng.Int63n(4000)
		if rng.Intn(4) == 0 {
			pages = 1 + rng.Int63n(8) // a few small ones break up the groups
		}
		start := rng.Int63n(slowPages - pages)
		tn := tensor{start * diffPage, pages * diffPage}
		if rng.Intn(3) == 0 { // unaligned: boundary pages shared with neighbours
			tn.addr += rng.Int63n(diffPage)
			tn.size -= diffPage
			if tn.size <= 0 {
				tn.size = 1 + rng.Int63n(diffPage/2)
			}
		}
		live = append(live, tn)
	}
	for i := 0; i < 6; i++ {
		place()
	}
	for d.epochs < epochs {
		for k := 2 + rng.Intn(6); k > 0; k-- {
			switch r := rng.Intn(10); {
			case r == 0 && len(live) > 2: // free; its pages cool down where they are
				i := rng.Intn(len(live))
				live = append(live[:i], live[i+1:]...)
				place()
			default:
				tn := live[rng.Intn(len(live))]
				// Repeats make some tensors much hotter than the
				// residents, which is what gets past the hysteresis.
				for n := 1 + rng.Intn(4)*rng.Intn(3); n > 0; n-- {
					d.access(tn.addr, tn.size, rng.Intn(2) == 0)
				}
			}
		}
		d.epoch()
	}
}

// TestEpochMatchesReference is the differential suite: tensor-shaped
// random streams under an unlimited, a tight and a loose migration
// budget, with every regime of Epoch required to have been reached.
func TestEpochMatchesReference(t *testing.T) {
	epochs, seeds := 40, int64(3)
	if testing.Short() {
		epochs, seeds = 20, 1
	}
	var cov coverage
	for _, budgetPages := range []int64{0, 700, 6000} {
		for seed := int64(1); seed <= seeds; seed++ {
			cfg := testCfg
			cfg.MaxMigrateBytes = budgetPages * diffPage
			// DRAM holds about two large tensors of the ~6 live.
			d := newDiffPair(t, 5000, 40000, cfg, &cov)
			tensorStream(d, seed+100*budgetPages, epochs)
		}
	}
	if cov != (coverage{true, true, true, true, true}) {
		t.Fatalf("streams missed a regime: %+v", cov)
	}
}

// TestEpochTieOrderPinned pins which pages of equally hot groups migrate
// on one fixed stream. Nothing in the model prefers one such page over
// another: the choice falls out of the swap sequence of pagemig's own
// unstable sort (hotorder.go), and results/baselines.csv (the OS:page
// column) is a function of it.
func TestEpochTieOrderPinned(t *testing.T) {
	cfg := testCfg
	cfg.MaxMigrateBytes = 1234 * diffPage
	m, _ := newMig(t, 3000*diffPage, 20000*diffPage, cfg)
	touch := func(startPage, pages int64, times int) {
		for ; times > 0; times-- {
			m.Access(startPage*diffPage, pages*diffPage, false, seqAccess)
		}
	}
	touch(100, 5000, 1) // one tie group, cut by the budget
	m.Epoch()
	touch(100, 5000, 1) // the rest of it, cut again by budget then quota
	touch(9000, 2500, 1)
	m.Epoch()
	m.Epoch()
	touch(12000, 4000, 6) // hot enough to displace tied residents
	m.Epoch()
	m.Epoch()

	bitmap := make([]byte, len(m.inFast))
	for pg, fast := range m.inFast {
		if fast {
			bitmap[pg] = 1
		}
	}
	sum := sha256.Sum256(bitmap)
	const want = "c5ef9c4fb367bedd602a9ac006815da4a55b372ee4df007c7c09695c5a7442a2"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("fast-page set after the fixed stream hashes to %s, want %s.\n"+
			"Epoch breaks ties between equally hot pages by the order pagemig's own copy of "+
			"Go 1.24's pdqsort (hotorder.go) leaves them in; a toolchain bump cannot move it. "+
			"Something changed Epoch, its candidate order or hotorder.go's swaps: expect the "+
			"OS:page rows of results/baselines.csv to move with it, and refresh them and this "+
			"hash together only if that change is meant to change results.", got, want)
	}
}

// TestEpochAllocFree: once the candidate buffers have grown to the
// working set, an epoch allocates nothing.
func TestEpochAllocFree(t *testing.T) {
	m, _ := newMig(t, 2000*diffPage, 20000*diffPage, testCfg)
	round := func() {
		m.Access(0, 6000*diffPage, false, seqAccess)
		m.Access(8000*diffPage, 3000*diffPage, true, seqAccess)
		m.Epoch()
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("steady-state epoch allocates %v times", allocs)
	}
}

// TestEpochPartialLastPage: when the slow capacity is not a multiple of
// the page size the last page is short, and migrating it moves only the
// bytes that exist (1300 GB / 2 MiB leaves such a page at paper scale).
func TestEpochPartialLastPage(t *testing.T) {
	const page = 2 << 20
	const tail = 1<<20 + 4096
	cfg := testCfg
	cfg.PageSize = page
	m, p := newMig(t, page, page+tail, cfg) // DRAM holds one page

	m.Access(page, tail, false, seqAccess)
	slowRead := p.Slow.Counters().ReadBytes
	m.Epoch() // promotes the short page into free DRAM
	if s := m.Stats(); s.Promotions != 1 || s.PromotedBytes != tail {
		t.Fatalf("promoting the short page: %+v, want %d bytes", s, tail)
	}
	if got := p.Slow.Counters().ReadBytes - slowRead; got != tail {
		t.Fatalf("promotion read %d bytes from the slow tier, want %d", got, tail)
	}

	for i := 0; i < 8; i++ {
		m.Access(0, page, false, seqAccess)
	}
	slowWritten := p.Slow.Counters().WriteBytes
	m.Epoch() // page 0 displaces it
	if s := m.Stats(); s.Demotions != 1 || s.DemotedBytes != tail || s.PromotedBytes != tail+page {
		t.Fatalf("demoting the short page: %+v", s)
	}
	if got := p.Slow.Counters().WriteBytes - slowWritten; got != tail {
		t.Fatalf("demotion wrote %d bytes to the slow tier, want %d", got, tail)
	}

	// The bytes of the last page the device does not have are out of range.
	defer func() {
		if recover() == nil {
			t.Fatal("access past the slow capacity did not panic")
		}
	}()
	m.Access(page+tail-8, 16, false, seqAccess)
}

// FuzzEpochMatchesReference decodes bytes into the same kind of stream
// over a 5200-page space with 600 pages of DRAM: the first byte picks the
// migration budget, then three bytes per operation — epoch, or 1..8
// whole-range reads or writes of up to 1021 pages.
func FuzzEpochMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 10, 200, 0, 0, 0, 1, 10, 200, 14, 40, 100, 0, 0, 0})
	f.Add([]byte{3, 2, 0, 255, 0, 0, 0, 31, 128, 255, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := testCfg
		cfg.MaxMigrateBytes = int64(data[0]%8) * 100 * diffPage
		d := newDiffPair(t, 600, 5200, cfg, nil)
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			kind, times := ops[0]%4, 1+int(ops[0]>>2)%8
			if kind == 0 {
				d.epoch()
				continue
			}
			addr, size := int64(ops[1])*16*diffPage, (1+int64(ops[2])*4)*diffPage
			for ; times > 0; times-- {
				d.access(addr, size, kind == 2)
			}
		}
		d.epoch()
	})
}
