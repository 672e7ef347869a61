// Package cachedarrays is a from-scratch Go reproduction of
// "CachedArrays: Optimizing Data Movement for Heterogeneous Memory
// Systems" (Hildebrand, Lowe-Power, Akella — IPDPS 2024).
//
// The implementation lives under internal/:
//
//   - internal/core — the public CachedArrays runtime (Arrays + hints)
//   - internal/dm — the data manager (objects, regions, evictfrom)
//   - internal/policy — the hint-driven tiering policy (Table II, L/M/P)
//   - internal/memsim — the virtual-time DRAM/NVRAM platform model
//   - internal/alloc — heap allocators (free-list, buddy, compaction)
//   - internal/twolm — the Intel "memory mode" hardware-cache baseline
//   - internal/models, internal/trace — CNN/DLRM workload graphs and
//     annotated schedules
//   - internal/engine, internal/experiments — executors and the
//     table/figure harness
//
// Command-line tools live under cmd/ (carun, cafigures, cacheck and
// more) and runnable examples under examples/. cafigures regenerates
// every table and figure of the paper's evaluation, and go run ./bench
// is the one benchmark; see EXPERIMENTS.md for the paper-versus-measured
// record.
package cachedarrays
