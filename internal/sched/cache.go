package sched

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"cachedarrays/internal/engine"
)

// cacheHeader versions the on-disk format; the trailing hex digest
// authenticates the body, so a truncated, bit-flipped or hand-edited file
// is detected and recomputed instead of trusted. An entry under another
// version of the header is stale: a miss, recomputed and overwritten.
const (
	cacheMagic  = "cachedarrays-cache "
	cacheHeader = cacheMagic + "v2"
)

// Cache is a content-addressed store of engine results: one keyed table
// for hits within one process, optionally backed by a directory of
// integrity-checked binary entries (entry.go) for cross-process reuse.
// Values are untyped: engine results, cluster results and the DLRM table
// share the table (their key spaces are disjoint by format header).
// All methods are safe for concurrent use; a nil *Cache never hits and
// never stores.
type Cache struct {
	dir string

	// mu guards table, which maps a key to its one entry: in flight
	// while a Memo caller computes it, settled once that is done.
	mu    sync.Mutex
	table map[string]*entry

	hits, misses, stores, corrupt atomic.Int64
}

// entry is one key's value. While done is open the key is in flight and
// v, err are the computing caller's alone; closing done publishes them.
// A failed entry leaves the table before done closes, so an entry a
// lookup finds settled always holds a value.
type entry struct {
	done chan struct{}
	v    any
	err  error
}

// settledEntry returns an entry already holding v.
func settledEntry(v any) *entry {
	e := &entry{done: make(chan struct{}), v: v}
	close(e.done)
	return e
}

// settled reports whether e holds a value.
func (e *entry) settled() bool {
	if e == nil {
		return false
	}
	select {
	case <-e.done:
		return e.err == nil
	default:
		return false
	}
}

// CacheStats counts the cache's traffic.
type CacheStats struct {
	Hits    int64 // results served without simulation
	Misses  int64 // lookups that fell through to the simulator
	Stores  int64 // results written into the cache
	Corrupt int64 // disk entries failing the integrity check or the decode
}

// OpenCache returns a cache persisting to dir ("" = in-memory only). The
// directory is created if missing.
func OpenCache(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("sched: cache dir: %w", err)
		}
	}
	return &Cache{dir: dir, table: map[string]*entry{}}, nil
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Stores:  c.stores.Load(),
		Corrupt: c.corrupt.Load(),
	}
}

// path names a key's disk entry. The ".json" suffix outlives the JSON
// format: the benchmark's per-layer sched.entry_kb row stats this path.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached engine result for key, consulting memory first
// and the backing directory second. Disk entries failing the integrity
// check count as corrupt and miss (the caller recomputes and overwrites).
func (c *Cache) Get(key string) (*engine.Result, bool) {
	v, ok := c.GetAny(key, Decode[engine.Result])
	if !ok {
		return nil, false
	}
	return v.(*engine.Result), true
}

// GetAny is Get for an arbitrary value type: decode (Decode[T] for a
// value stored as a *T) rebuilds the value from a verified disk entry's
// body (in-memory hits return the stored pointer directly and never
// invoke it). A stale entry — another format version, or a type whose
// fingerprint no longer matches — is a plain miss; one failing the
// integrity check or the decode counts as corrupt. Callers must pair a key
// space with one decode shape — the format header hashed into every key
// guarantees engine and cluster entries never alias. A key still in
// flight is not in memory yet: GetAny never waits.
func (c *Cache) GetAny(key string, decode func([]byte) (any, error)) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e := c.table[key]
	c.mu.Unlock()
	if e.settled() {
		c.hits.Add(1)
		return e.v, true
	}
	v, ok := c.fetch(key, decode)
	if ok {
		c.mu.Lock()
		if _, taken := c.table[key]; !taken {
			c.table[key] = settledEntry(v)
		}
		c.mu.Unlock()
	}
	return v, ok
}

// fetch is the disk tier of a lookup. It counts the lookup's outcome: a
// hit, a miss, or a miss on a corrupt entry.
func (c *Cache) fetch(key string, decode func([]byte) (any, error)) (any, bool) {
	if c.dir != "" {
		if v, err := c.load(key, decode); err == nil {
			c.hits.Add(1)
			return v, true
		} else if !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, errStale) {
			c.corrupt.Add(1)
		}
	}
	c.misses.Add(1)
	return nil, false
}

// load reads and verifies one disk entry: a header line binding the
// format version to the body's SHA-256, then the binary body.
func (c *Cache) load(key string, decode func([]byte) (any, error)) (any, error) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, err
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("sched: cache entry %s: missing header", key)
	}
	header, body := string(data[:nl]), data[nl+1:]
	if strings.HasPrefix(header, cacheMagic) && !strings.HasPrefix(header, cacheHeader+" ") {
		return nil, errStale
	}
	want := fmt.Sprintf("%s %x", cacheHeader, sha256.Sum256(body))
	if header != want {
		return nil, fmt.Errorf("sched: cache entry %s: integrity check failed", key)
	}
	v, err := decode(body)
	if err != nil {
		return nil, fmt.Errorf("sched: cache entry %s: %w", key, err)
	}
	return v, nil
}

// Put stores an engine result under key (see PutAny).
func (c *Cache) Put(key string, r *engine.Result) error { return c.PutAny(key, r) }

// PutAny stores v, a non-nil *T whose type Decode[T] can rebuild, under
// key: on disk first (when backed), then in the table. A type the entry
// codec cannot encode, or a failed write, is an error and nothing is
// stored.
func (c *Cache) PutAny(key string, v any) error {
	if c == nil {
		return nil
	}
	if err := c.persist(key, v); err != nil {
		return err
	}
	c.mu.Lock()
	c.table[key] = settledEntry(v)
	c.mu.Unlock()
	return nil
}

// persist writes v's disk entry (when backed) via a temp-file rename, so
// concurrent readers never observe a partial entry, and counts the store.
// Encoding and disk I/O run outside the table's lock.
func (c *Cache) persist(key string, v any) error {
	ec, err := codecOf(v)
	if err != nil {
		return err
	}
	if c.dir != "" {
		body := ec.encode(v)
		tmp, err := os.CreateTemp(c.dir, key+".tmp*")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(tmp, "%s %x\n", cacheHeader, sha256.Sum256(body))
		if err == nil {
			_, err = tmp.Write(body)
		}
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp.Name(), c.path(key))
		}
		if err != nil {
			os.Remove(tmp.Name())
			return err
		}
	}
	c.stores.Add(1)
	return nil
}

// memo is Scheduler.Memo's walk of the table. The first caller for a key
// claims an in-flight entry, then fills it from disk or from compute
// (storing the computed value). Callers finding the entry in flight wait
// for it and report shared; callers finding it settled report a hit. A
// failed computation leaves the table before its waiters wake with its
// error, so the next caller retries.
func (c *Cache) memo(key string, decode func([]byte) (any, error), compute func() (any, error)) (v any, hit, shared bool, err error) {
	c.mu.Lock()
	e, found := c.table[key]
	ready := e.settled()
	if !found {
		e = &entry{done: make(chan struct{})}
		c.table[key] = e
	}
	c.mu.Unlock()
	switch {
	case ready:
		c.hits.Add(1)
		return e.v, true, false, nil
	case found:
		<-e.done
		return e.v, e.err == nil, e.err == nil, e.err
	}

	v, hit = c.fetch(key, decode)
	if !hit {
		if v, err = compute(); err == nil {
			err = c.persist(key, v)
		}
	}
	if err != nil {
		v = nil
		c.mu.Lock()
		if c.table[key] == e {
			delete(c.table, key)
		}
		c.mu.Unlock()
	}
	e.v, e.err = v, err
	close(e.done)
	return v, hit, false, err
}
