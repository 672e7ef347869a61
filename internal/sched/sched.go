// Package sched is the run scheduler every experiment driver submits its
// engine cells to: a bounded worker pool with one mode dispatcher and an
// optional content-addressed result cache.
//
// The simulation is fully deterministic — identical (model, mode, config)
// cells produce byte-identical results, a property the repository's tests
// prove repeatedly — which is exactly what makes memoization safe: a cell
// another figure (or another process) already computed is returned from
// the cache as a reflect.DeepEqual-identical result instead of being
// re-simulated. Runs that attach instrumentation (tracing, fault
// injection, invariant audits, metrics) bypass the cache entirely, so an
// instrumented run never serves — or stores — a stale artifact.
//
// The parallel path is built to scale: result slots are written without
// any lock (each cell owns its index), completion counters are atomics,
// the progress line is throttled and skipped under contention rather
// than serializing workers, and model construction runs on the worker
// (Cell.Build) overlapped with other cells' simulation. The cache is one
// keyed table whose entries are in flight before they settle, so
// concurrent submissions of the identical cell simulate once and the
// disk sees one writer per key.
package sched

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/models"
)

// Cell is one schedulable engine run: a model under an operating mode
// with a merged config. Name labels the cell in errors and progress
// output; Done, when non-nil, receives the completed (or cache-served)
// result on the worker goroutine — per-run exports hook here.
type Cell struct {
	Name string
	// Model is the pre-built workload graph. Leave it nil and set Build
	// instead to defer construction to the worker: the build then
	// overlaps with other cells' simulation instead of serializing the
	// submitting driver's collect loop.
	Model *models.Model
	// Build constructs the cell's model on the worker (used when Model
	// is nil). It must be deterministic. Cells may share one thunk and
	// one built model — concurrent runs only read it — so a driver
	// sweeping modes over a network builds that network once.
	Build func() (*models.Model, error)
	Mode  string
	Cfg   engine.Config
	Done  func(*engine.Result) error
}

// model resolves the cell's workload graph, building lazily on the
// calling (worker) goroutine when only Build is set.
func (c *Cell) model() (*models.Model, error) {
	if c.Model != nil {
		return c.Model, nil
	}
	if c.Build == nil {
		return nil, fmt.Errorf("sched: cell has neither Model nor Build")
	}
	m, err := c.Build()
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("sched: Build returned a nil model")
	}
	return m, nil
}

// Scheduler executes cells on a bounded worker pool. The zero value is a
// serial, uncached scheduler.
type Scheduler struct {
	// Workers bounds concurrent simulations (<= 1 = serial).
	Workers int
	// Cache, when non-nil, memoizes cacheable cells (see Cacheable).
	Cache *Cache
	// Progress, when non-nil, receives a single live progress line
	// (carriage-return rewritten) plus a final summary per Run batch.
	// Commands point it at stderr so stdout stays clean for CSV output.
	Progress io.Writer
	// ProgressEvery is the minimum interval between live progress
	// rewrites (0 = the 50ms default). The final summary always prints.
	ProgressEvery time.Duration

	// sims counts simulations actually executed over the scheduler's
	// lifetime; dedups counts cells served by another cell's in-flight
	// simulation.
	sims   atomic.Int64
	dedups atomic.Int64
}

// Simulations reports how many cells this scheduler actually simulated
// (cache hits and dedups excluded) over its lifetime.
func (s *Scheduler) Simulations() int64 { return s.sims.Load() }

// Dedups reports how many cells were served by another concurrent
// cell's in-flight simulation (a cache entry still in flight).
func (s *Scheduler) Dedups() int64 { return s.dedups.Load() }

// progressLine throttles the live progress rewrite: a worker that
// cannot take the lock, or that finds the line fresher than the
// interval, skips the print — progress I/O never serializes workers.
type progressLine struct {
	w     io.Writer
	every time.Duration
	mu    sync.Mutex
	last  time.Time
}

func (p *progressLine) update(done, total, cached int64) {
	if p.w == nil {
		return
	}
	if !p.mu.TryLock() {
		return // another worker is mid-print; this completion skips
	}
	defer p.mu.Unlock()
	if now := time.Now(); now.Sub(p.last) >= p.every {
		p.last = now
		fmt.Fprintf(p.w, "\rsched: %d/%d runs (%d cached)", done, total, cached)
	}
}

// Run executes the cells and returns their results in submission order.
// Cells run concurrently up to Workers; the first error wins and is
// wrapped with its cell's name; a cell whose config fails
// engine.Config.Validate fails the batch before any cell runs. Once any
// cell has failed, the remaining
// cells are skipped instead of simulated — a failing 1000-cell sweep
// reports after the in-flight work drains, not after burning the whole
// suite. Results served from the cache are shared pointers — callers
// must treat them as read-only.
func (s *Scheduler) Run(cells []Cell) ([]*engine.Result, error) {
	for i := range cells {
		if err := cells[i].Cfg.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", cells[i].Name, err)
		}
	}
	workers := s.Workers
	if workers <= 0 {
		workers = 1
	}
	results := make([]*engine.Result, len(cells))
	every := s.ProgressEvery
	if every == 0 {
		every = 50 * time.Millisecond
	}
	var (
		wg                            sync.WaitGroup
		done, cached, failed, skipped atomic.Int64
		errMu                         sync.Mutex
		firstErr                      error
		prog                          = &progressLine{w: s.Progress, every: every}
	)
	batchFailed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}
	// The feeder hands out cell indices in submission order and stops
	// at the first recorded error, charging the undispatched tail to
	// the skip counter. The unbuffered channel keeps at most one cell
	// queued past the workers, so almost no work is committed before
	// the error check sees it.
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := range cells {
			if batchFailed() {
				skipped.Add(int64(len(cells) - i))
				return
			}
			idx <- i
		}
	}()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				// Re-check on the worker: a cell the feeder queued
				// before the failure landed is skipped here.
				if batchFailed() {
					skipped.Add(1)
					continue
				}
				r, hit, err := s.runCell(&cells[i])
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s: %w", cells[i].Name, err)
					}
					errMu.Unlock()
					failed.Add(1)
					continue
				}
				// Each cell owns its slot: no lock needed for the write.
				results[i] = r
				c := cached.Load()
				if hit {
					c = cached.Add(1)
				}
				prog.update(done.Add(1), int64(len(cells)), c)
			}
		}()
	}
	wg.Wait()
	if s.Progress != nil && len(cells) > 0 {
		d, c, f, sk := done.Load(), cached.Load(), failed.Load(), skipped.Load()
		if f > 0 || sk > 0 {
			fmt.Fprintf(s.Progress, "\rsched: %d/%d runs (%d ok, %d failed, %d skipped), %d cache hits, %d simulated, workers=%d\n",
				d+f, int64(len(cells)), d, f, sk, c, d-c, workers)
		} else {
			fmt.Fprintf(s.Progress, "\rsched: %d runs, %d cache hits, %d simulated, workers=%d\n",
				d, c, d-c, workers)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// warnKeyError surfaces cache-key failures: a key error means
// engine.Config grew a field the hasher cannot canonicalize, which
// silently disables memoization for every affected cell — worth one loud
// line on stderr per *distinct* failure, not one per cell. Deduplication
// is by error message, not process-global: a second, different key
// failure later in a long session (a different config field, a different
// model serialization problem) still gets its own line instead of being
// swallowed by the first.
var (
	keyErrMu   sync.Mutex
	keyErrSeen map[string]bool
	keyErrOut  io.Writer = os.Stderr // swapped in tests
)

// WarnKeyError is the exported form for sibling packages that compute
// composite keys over engine configs (the cluster's whole-run key): the
// same once-per-distinct-message stderr warning, the same consequence
// (the affected runs execute uncached).
func WarnKeyError(err error) { warnKeyError(err) }

func warnKeyError(err error) {
	msg := err.Error()
	keyErrMu.Lock()
	defer keyErrMu.Unlock()
	if keyErrSeen[msg] {
		return
	}
	if keyErrSeen == nil {
		keyErrSeen = make(map[string]bool)
	}
	keyErrSeen[msg] = true
	fmt.Fprintf(keyErrOut,
		"sched: cannot compute result-cache keys; affected runs execute uncached: %v\n", err)
}

// runCell executes one cell: model resolution (lazy Build runs here, on
// the worker), the cached path through Memo for a keyed cell or a plain
// simulation otherwise, then the cell's Done callback. The second return
// reports whether the result arrived without this cell simulating (a
// cache or dedup hit).
func (s *Scheduler) runCell(c *Cell) (*engine.Result, bool, error) {
	m, err := c.model()
	if err != nil {
		return nil, false, err
	}
	var key string
	if s.Cache != nil && Cacheable(c.Cfg) {
		if k, kerr := Key(m, c.Mode, c.Cfg); kerr != nil {
			warnKeyError(kerr)
		} else {
			key = k
		}
	}
	var r *engine.Result
	hit := false
	if key != "" {
		v, h, err := s.Memo(key, Decode[engine.Result], func() (any, error) {
			return RunMode(m, c.Mode, c.Cfg)
		})
		if err != nil {
			return nil, false, err
		}
		r, hit = v.(*engine.Result), h
	} else {
		s.sims.Add(1)
		if r, err = RunMode(m, c.Mode, c.Cfg); err != nil {
			return nil, false, err
		}
	}
	if c.Done != nil {
		if err := c.Done(r); err != nil {
			return nil, false, err
		}
	}
	return r, hit, nil
}

// Memo memoizes an arbitrary keyed computation through the scheduler's
// result cache — the one cached path, shared by engine cells (runCell),
// whole cluster runs and the DLRM table. The cache's table holds one
// entry per key: the first caller claims it, consults the disk tier
// (decode rebuilds a value from a verified entry) and computes and stores
// on a miss; callers arriving while it is in flight wait for it and count
// as dedups; later callers hit the settled entry. Every caller shares the
// settled pointer, so results must be treated as read-only. A failed
// computation hands its error to every waiter and leaves no entry, so the
// next caller retries. The computation must be deterministic and its
// value a *T that round-trips through the binary cache entry (PutAny,
// Decode[T]) — the same obligations the simulation's byte-identity tests
// prove for engine results. The second return reports whether the value
// arrived without this caller computing (a cache or dedup hit).
//
// Keys must be content hashes whose preimage starts with a
// caller-specific format header (engine cells use "cachedarrays-run v3",
// cluster runs "cachedarrays-cluster v3"), which keeps the shared key
// space collision-free. A scheduler without a Cache has no table: every
// call computes and counts a simulation. That gives up one behaviour,
// dedup of concurrent identical calls on a cacheless scheduler, which
// routed cluster runs sharing one such scheduler were measured to make
// none of.
func (s *Scheduler) Memo(key string, decode func([]byte) (any, error), compute func() (any, error)) (any, bool, error) {
	if s.Cache == nil {
		s.sims.Add(1)
		v, err := compute()
		return v, false, err
	}
	v, hit, shared, err := s.Cache.memo(key, decode, func() (any, error) {
		s.sims.Add(1)
		return compute()
	})
	if shared {
		s.dedups.Add(1)
	}
	return v, hit, err
}

// Cacheable reports whether a run with this config may be served from (or
// stored into) the result cache. Any attached instrumentation — tracing,
// data-manager event logs, fault injection, invariant audits, a metrics
// registry — makes the run uncacheable: those runs produce per-run
// artifacts a memoized result cannot reproduce.
func Cacheable(cfg engine.Config) bool {
	return !cfg.Trace && cfg.TraceEvents == 0 && cfg.FaultSpec == "" &&
		!cfg.CheckEveryAdvance && !cfg.CheckInvariants && cfg.Metrics == nil
}

// modeAliases maps the accepted alternative spellings (upper-cased) to
// canonical mode names.
var modeAliases = map[string]string{
	"2LM:O": "2LM:0", "CA:O": "CA:0", "CA:TGOG": "CA:OGTG",
	"OS": "OS:page", "AUTOTM:PLAN": "AutoTM", "PLAN": "AutoTM",
}

// Normalize canonicalizes a user-facing mode spelling ("os", "2LM:O",
// "plan", any casing of an engine.Modes name) to the canonical mode name.
func Normalize(mode string) (string, error) {
	if canon, ok := modeAliases[strings.ToUpper(mode)]; ok {
		return canon, nil
	}
	for _, canon := range engine.Modes {
		if strings.EqualFold(canon, mode) {
			return canon, nil
		}
	}
	return "", fmt.Errorf("sched: unknown mode %q (%s)", mode, strings.Join(engine.Modes, ", "))
}

// RunMode is the single authoritative mode dispatcher: it builds the
// engine's event-driven stepper for a canonical mode name (any Normalize
// spelling is accepted) and drives it to completion.
func RunMode(m *models.Model, mode string, cfg engine.Config) (*engine.Result, error) {
	st, err := engine.NewStepper(m, mode, cfg, nil)
	if errors.Is(err, engine.ErrUnknownMode) {
		canon, nerr := Normalize(mode)
		if nerr != nil {
			return nil, nerr
		}
		st, err = engine.NewStepper(m, canon, cfg, nil)
	}
	if err != nil {
		return nil, err
	}
	return engine.Drive(st)
}
