package exp

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// cacheVersion tags the on-disk format; files with a different
// version are treated like corrupted ones (fresh cache, load error
// reported). Version 2: Result gained the surrogate ranking input
// AnalyticAvgChannelLoad and the measurement resolution
// SaturationResolutionPct — version-1 entries would deserialize with
// those fields silently zero, degrading the surrogate band selection
// and the validated-frontier tolerance, so they must not be reused.
const cacheVersion = 2

// Cache memoizes job results under their content keys. It is safe
// for concurrent use. A cache is in-memory by default; OpenCache
// attaches a JSON file so results persist across process invocations
// (repeated shrun/shdse runs skip already-computed points).
type Cache struct {
	mu      sync.Mutex
	path    string
	entries map[string]cacheEntry
	hits    int
	misses  int
	dirty   bool
}

// cacheEntry stores the job alongside its result so cache files are
// self-describing (the key alone is opaque).
type cacheEntry struct {
	Job    Job     `json:"job"`
	Result *Result `json:"result"`
}

// cacheFile is the on-disk representation.
type cacheFile struct {
	Version int                   `json:"version"`
	Entries map[string]cacheEntry `json:"entries"`
}

// NewCache returns an empty in-memory cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]cacheEntry{}}
}

// OpenCache returns a cache backed by the JSON file at path, loading
// any entries already there. A missing file is not an error (the
// first Save creates it). A corrupted or version-mismatched file
// yields a usable empty cache plus a non-nil error, so callers can
// warn and proceed rather than abort a campaign; Save will then
// overwrite the unusable file. A transient read error (permissions,
// I/O) also yields an empty cache plus the error, but with
// persistence disabled — the file's contents may still be good, so
// Save must not clobber them.
func OpenCache(path string) (*Cache, error) {
	c := NewCache()
	c.path = path
	if path == "" {
		return c, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		c.path = "" // never overwrite a file we could not read
		return c, fmt.Errorf("exp: reading cache %s (persistence disabled): %w", path, err)
	}
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return c, fmt.Errorf("exp: cache %s is corrupted, starting fresh: %w", path, err)
	}
	if f.Version != cacheVersion {
		return c, fmt.Errorf("exp: cache %s has version %d, want %d; starting fresh", path, f.Version, cacheVersion)
	}
	if f.Entries != nil {
		c.entries = f.Entries
	}
	return c, nil
}

// Get looks a key up, counting the hit or miss.
func (c *Cache) Get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
		return e.Result, true
	}
	c.misses++
	return nil, false
}

// peek is Get without touching the hit/miss statistics — the
// runner's post-claim re-check uses it, and counting that probe
// would double every computed job as an extra miss in the stats the
// CLIs print.
func (c *Cache) peek(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return e.Result, ok
}

// Put stores a result under the job's key.
func (c *Cache) Put(j Job, res *Result) {
	key := j.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = cacheEntry{Job: j, Result: res}
	c.dirty = true
}

// Stats returns the hit and miss counts since the cache was created.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Save writes the cache to its file atomically (temp file + rename).
// It is a no-op for purely in-memory caches and when nothing changed
// since the last save.
func (c *Cache) Save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.path == "" || !c.dirty {
		return nil
	}
	data, err := json.MarshalIndent(cacheFile{Version: cacheVersion, Entries: c.entries}, "", " ")
	if err != nil {
		return fmt.Errorf("exp: encoding cache: %w", err)
	}
	dir := filepath.Dir(c.path)
	tmp, err := os.CreateTemp(dir, ".exp-cache-*")
	if err != nil {
		return fmt.Errorf("exp: writing cache: %w", err)
	}
	// CreateTemp uses 0600; keep an existing file's (possibly shared)
	// permissions rather than silently tightening them on rewrite.
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(c.path); err == nil {
		mode = fi.Mode().Perm()
	}
	if err := tmp.Chmod(mode); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: writing cache %s: %w", c.path, err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if err := cmp.Or(werr, cerr); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: writing cache %s: %w", c.path, err)
	}
	if err := os.Rename(tmp.Name(), c.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: writing cache %s: %w", c.path, err)
	}
	c.dirty = false
	return nil
}
