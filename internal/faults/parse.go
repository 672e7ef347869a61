package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"cachedarrays/internal/units"
)

// Parse builds a Schedule from the compact spec carun's -faults flag takes.
//
// The spec is a semicolon-separated clause list. One optional clause seeds
// the injector ("seed=42"); every other clause is one episode:
//
//	kind[:target]:param=value[,param=value...]
//
// Kinds and their parameters (times accept s/ms/us/ns suffixes, bare
// numbers are seconds; byte sizes accept the usual KB/MB/GB/KiB... units):
//
//	allocfail  t0, t1, p          transient allocation failures on a tier
//	copyerr    t0, t1, p          transient copy errors (victims retry)
//	copystall  t0, t1, p, stall   extra stall per copy-engine transfer
//	bw         t0, t1, factor     bandwidth collapse on a device
//	shrink     t0, t1, bytes      capacity withheld from a tier
//
// t1 omitted (or 0) leaves the episode open-ended. Targets are tier names
// ("fast", "slow") for allocfail/shrink and device names ("dram", "nvram",
// "cxl") for copystall/bw.
//
// Example:
//
//	seed=42;allocfail:fast:t0=0.2,t1=0.6,p=0.5;bw:nvram:t0=1s,t1=2s,factor=0.1;shrink:fast:t0=3s,bytes=20GB
func Parse(spec string) (Schedule, error) {
	var s Schedule
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Schedule{}, fmt.Errorf("faults: bad seed %q: %v", v, err)
			}
			s.Seed = seed
			continue
		}
		ep, err := parseEpisode(clause)
		if err != nil {
			return Schedule{}, err
		}
		s.Episodes = append(s.Episodes, ep)
	}
	return s, nil
}

// episodeKinds maps clause names to fault kinds.
var episodeKinds = map[string]Kind{
	"allocfail": AllocFail,
	"copyerr":   CopyError,
	"copystall": CopyStall,
	"bw":        Bandwidth,
	"shrink":    CapacityShrink,
}

func parseEpisode(clause string) (Episode, error) {
	parts := strings.Split(clause, ":")
	kind, ok := episodeKinds[parts[0]]
	if !ok {
		return Episode{}, fmt.Errorf("faults: unknown fault kind %q (allocfail, copyerr, copystall, bw, shrink)", parts[0])
	}
	ep := Episode{Kind: kind}
	var params string
	switch len(parts) {
	case 2:
		params = parts[1]
	case 3:
		ep.Target = parts[1]
		params = parts[2]
	default:
		return Episode{}, fmt.Errorf("faults: malformed clause %q (want kind[:target]:params)", clause)
	}
	for _, kv := range strings.Split(params, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, found := strings.Cut(kv, "=")
		if !found {
			return Episode{}, fmt.Errorf("faults: malformed parameter %q in %q", kv, clause)
		}
		var err error
		switch key {
		case "t0":
			ep.T0, err = parseSeconds(val)
		case "t1":
			ep.T1, err = parseSeconds(val)
		case "p":
			ep.Prob, err = strconv.ParseFloat(val, 64)
			if err == nil && !(ep.Prob >= 0 && ep.Prob <= 1) { // NaN fails too
				err = fmt.Errorf("probability outside [0,1]")
			}
		case "factor":
			ep.Factor, err = strconv.ParseFloat(val, 64)
			if err == nil && !(ep.Factor > 0 && ep.Factor <= 1) { // NaN fails too
				err = fmt.Errorf("factor outside (0,1]")
			}
		case "stall":
			ep.Stall, err = parseSeconds(val)
		case "bytes":
			ep.Bytes, err = units.ParseBytes(val)
		default:
			err = fmt.Errorf("unknown parameter")
		}
		if err != nil {
			return Episode{}, fmt.Errorf("faults: parameter %q in %q: %v", kv, clause, err)
		}
	}
	if ep.T1 > 0 && ep.T1 <= ep.T0 {
		return Episode{}, fmt.Errorf("faults: empty window [%g,%g) in %q", ep.T0, ep.T1, clause)
	}
	switch kind {
	case Bandwidth:
		if ep.Factor == 0 {
			return Episode{}, fmt.Errorf("faults: bw episode %q needs factor=", clause)
		}
	case CapacityShrink:
		if ep.Bytes <= 0 {
			return Episode{}, fmt.Errorf("faults: shrink episode %q needs bytes=", clause)
		}
	case CopyStall:
		if ep.Stall <= 0 {
			return Episode{}, fmt.Errorf("faults: copystall episode %q needs stall=", clause)
		}
	}
	return ep, nil
}

// parseSeconds parses a duration: bare numbers are seconds; s, ms, us and
// ns suffixes are accepted.
func parseSeconds(v string) (float64, error) {
	scale := 1.0
	switch {
	case strings.HasSuffix(v, "ms"):
		v, scale = strings.TrimSuffix(v, "ms"), 1e-3
	case strings.HasSuffix(v, "us"):
		v, scale = strings.TrimSuffix(v, "us"), 1e-6
	case strings.HasSuffix(v, "ns"):
		v, scale = strings.TrimSuffix(v, "ns"), 1e-9
	case strings.HasSuffix(v, "s"):
		v = strings.TrimSuffix(v, "s")
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad duration: %v", err)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("non-finite duration")
	}
	if f < 0 {
		return 0, fmt.Errorf("negative duration")
	}
	return f * scale, nil
}
