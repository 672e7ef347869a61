package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/models"
)

// Key computes the content-addressed cache key of one run: a SHA-256 over
// the canonical mode name, the canonical (default-resolved) engine config
// in its entry-codec form (WriteKey) and the model's streamed binary
// digest (models.Model.WriteDigest — every field of the graph,
// length-prefixed, written straight into the hash). The header versions
// the whole preimage: entries stored under an older header are never
// found again, a clean miss. The run *name* is deliberately not part of
// the key: two drivers submitting the same (model, mode, config) cell —
// the baselines table re-running a matrix cell, fig7async's synchronous
// points re-running fig7's — address the same cached result.
//
// The config's type fingerprint names every exported field and its type,
// so any field added to engine.Config changes the key space — a new knob
// can never silently alias an old result. A config carrying live state (a
// non-nil pointer) yields an error; Cacheable screens those out before
// Key is consulted.
func Key(model *models.Model, mode string, cfg engine.Config) (string, error) {
	canon, err := Normalize(mode)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "cachedarrays-run v3\nmode=%s\n", canon)
	if err := WriteKey(h, cfg.Canonical()); err != nil {
		return "", err
	}
	fmt.Fprintf(h, "model=")
	if err := model.WriteDigest(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
