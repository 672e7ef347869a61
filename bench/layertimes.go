package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/sched"
)

// acc sums durations of repeated calls to one function.
type acc struct {
	n   int64
	sum time.Duration
}

func (a *acc) add(d time.Duration) { a.n++; a.sum += d }

// per returns the mean duration of one call in the given unit.
func (a *acc) per(unit time.Duration) float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.n) / float64(unit)
}

// hist is a latency histogram with quarter-octave buckets from 1 ns: fine
// enough that a percentile read off it is within ~19% of the true value,
// small enough to update on every Step.
type hist struct {
	buckets [4 * 40]int64
	n       int64
}

func (h *hist) add(d time.Duration) {
	ns := float64(d)
	if ns < 1 {
		ns = 1
	}
	b := int(4 * math.Log2(ns))
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b]++
	h.n++
}

// quantile returns the upper edge, in ns, of the bucket holding the q-th
// sample.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	var seen int64
	for b, c := range h.buckets {
		seen += c
		if seen >= rank {
			return math.Exp2(float64(b+1) / 4)
		}
	}
	return math.Exp2(float64(len(h.buckets)) / 4)
}

// modeClass folds an operating mode into the engine's stepper families.
func modeClass(mode string) string {
	switch {
	case mode == engine.AdaptiveOG || mode == engine.AdaptiveTG || mode == engine.AdaptiveOGTG:
		return "adaptive"
	case strings.HasPrefix(mode, "CA:"):
		return "ca"
	case strings.HasPrefix(mode, "2LM:"):
		return "twolm"
	case mode == "OS:page":
		return "ospage"
	default:
		return "autotm"
	}
}

// layerTimes is what a body learns about the engine and sched layers
// while driving steppers itself. newStepper/finish/per-class step rates
// are cheap enough to take on every run; the per-Step histogram and the
// cache round trip only happen on the traced run.
type layerTimes struct {
	newStepper acc
	finish     acc
	step       hist
	key        acc
	put        acc
	get        acc
	entryBytes int64
	classSteps map[string]int64
	classTime  map[string]time.Duration
	cacheDir   string
	cacheFail  int
}

func newLayerTimes() *layerTimes {
	return &layerTimes{classSteps: map[string]int64{}, classTime: map[string]time.Duration{}}
}

func (lt *layerTimes) classRun(mode string, steps int64, d time.Duration) {
	c := modeClass(mode)
	lt.classSteps[c] += steps
	lt.classTime[c] += d
}

// cacheRoundTrip stores res under key in a scratch cache and reads it
// back through a fresh Cache instance (disk load, integrity check,
// decode). A warm result that is not DeepEqual to the cold one is a
// failed operation.
func (lt *layerTimes) cacheRoundTrip(tmp string, sp *spans, parent int, key string, res *engine.Result) error {
	if lt.cacheDir == "" {
		dir, err := os.MkdirTemp(tmp, "roundtrip-")
		if err != nil {
			return err
		}
		lt.cacheDir = dir
	}
	c, err := sched.OpenCache(lt.cacheDir)
	if err != nil {
		return err
	}
	id := sp.begin("sched.put", parent)
	t0 := time.Now()
	err = c.Put(key, res)
	lt.put.add(time.Since(t0))
	sp.end(id, 1)
	if err != nil {
		return err
	}
	if fi, err := os.Stat(filepath.Join(lt.cacheDir, key+".json")); err == nil {
		lt.entryBytes += fi.Size()
	}
	fresh, err := sched.OpenCache(lt.cacheDir)
	if err != nil {
		return err
	}
	id = sp.begin("sched.get", parent)
	t0 = time.Now()
	warm, ok := fresh.Get(key)
	lt.get.add(time.Since(t0))
	sp.end(id, 1)
	if !ok || !reflect.DeepEqual(warm, res) {
		lt.cacheFail++
		fmt.Fprintf(os.Stderr, "bench: warm result for %s/%s differs from cold\n", res.ModelName, res.Mode)
	}
	return nil
}

// close removes the scratch cache.
func (lt *layerTimes) close() {
	if lt.cacheDir != "" {
		os.RemoveAll(lt.cacheDir)
	}
}

// into writes the engine and sched metrics this body observed.
func (lt *layerTimes) into(out map[string]float64) {
	out["engine.new_stepper_us"] = lt.newStepper.per(time.Microsecond)
	out["engine.finish_us"] = lt.finish.per(time.Microsecond)
	var steps int64
	for c, n := range lt.classSteps {
		steps += n
		if d := lt.classTime[c]; d > 0 {
			out["engine.steps_per_s."+c] = float64(n) / d.Seconds()
		}
	}
	out["engine.steps"] = float64(steps)
	if lt.step.n > 0 {
		out["engine.step_ns_p50"] = lt.step.quantile(0.50)
		out["engine.step_ns_p99"] = lt.step.quantile(0.99)
	}
	lt.schedInto(out)
}

// schedInto writes the result cache's timings, if any round trip ran.
func (lt *layerTimes) schedInto(out map[string]float64) {
	if lt.put.n == 0 {
		return
	}
	out["sched.key_us"] = lt.key.per(time.Microsecond)
	out["sched.put_us"] = lt.put.per(time.Microsecond)
	out["sched.get_us"] = lt.get.per(time.Microsecond)
	out["sched.entry_kb"] = float64(lt.entryBytes) / float64(lt.put.n) / 1e3
}
