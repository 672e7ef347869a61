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

// cacheShards is the in-memory map's shard count. Keys are hex SHA-256
// digests, so the leading bytes are uniform and a prefix shard spreads
// concurrent writers evenly. 64 shards keep the chance of two of
// GOMAXPROCS workers colliding on one lock small.
const cacheShards = 64

// cacheShard is one slice of the in-memory index behind its own short
// lock: concurrent Get/Put on different key prefixes never contend.
// Values are untyped: engine results and cluster results share the store
// (their content-hash key spaces are disjoint by format header).
type cacheShard struct {
	mu  sync.Mutex
	mem map[string]any
}

// Cache is a content-addressed store of engine results: a sharded
// in-memory map for hits within one process, optionally backed by a
// directory of integrity-checked binary entries (entry.go) for
// cross-process reuse.
// Locking is sharded by key prefix and statistics are atomics, so
// concurrent readers and writers of distinct keys share no lock at all.
// All methods are safe for concurrent use; a nil *Cache never hits and
// never stores.
type Cache struct {
	dir string

	shards [cacheShards]cacheShard

	hits, misses, stores, corrupt atomic.Int64
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
	c := &Cache{dir: dir}
	for i := range c.shards {
		c.shards[i].mem = map[string]any{}
	}
	return c, nil
}

// shard maps a key to its lock shard by prefix. Keys are hex digests;
// two leading hex digits give 256 uniform buckets folded onto the shard
// count. Short keys (tests, ad-hoc callers) fold what is there.
func (c *Cache) shard(key string) *cacheShard {
	var h uint
	for i := 0; i < len(key) && i < 2; i++ {
		h = h<<4 + uint(hexVal(key[i]))
	}
	return &c.shards[h%cacheShards]
}

func hexVal(b byte) byte {
	switch {
	case b >= '0' && b <= '9':
		return b - '0'
	case b >= 'a' && b <= 'f':
		return b - 'a' + 10
	case b >= 'A' && b <= 'F':
		return b - 'A' + 10
	default:
		return b & 0xf
	}
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
// guarantees engine and cluster entries never alias.
func (c *Cache) GetAny(key string, decode func([]byte) (any, error)) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	v, ok := s.mem[key]
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return v, true
	}
	if c.dir != "" {
		if v, err := c.load(key, decode); err == nil {
			s.mu.Lock()
			s.mem[key] = v
			s.mu.Unlock()
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
// key, in memory and (when backed) on disk via a temp-file rename so
// concurrent readers never observe a partial entry. A type the entry
// codec cannot encode is an error naming the field, and nothing is
// stored. Encoding and disk I/O run outside any lock:
// concurrent writers only touch their key's shard for the map insert.
func (c *Cache) PutAny(key string, v any) error {
	if c == nil {
		return nil
	}
	ec, err := codecOf(v)
	if err != nil {
		return err
	}
	s := c.shard(key)
	s.mu.Lock()
	s.mem[key] = v
	s.mu.Unlock()
	c.stores.Add(1)
	if c.dir == "" {
		return nil
	}
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
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}
