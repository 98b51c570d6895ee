package resultcache

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mcd/internal/stats"
)

// Options configures a Cache.
type Options struct {
	// MaxMemBytes bounds the in-memory tier by the total size of stored
	// encodings. Zero means the 64 MiB default; negative disables the
	// memory tier entirely (disk-only).
	MaxMemBytes int64
	// Dir, if non-empty, enables the on-disk tier: one file per key,
	// written atomically (temp file + rename), so a crashed writer can
	// never leave a torn entry and concurrent processes sharing the
	// directory see only complete encodings.
	Dir string
}

// DefaultMaxMemBytes is the memory-tier bound when Options.MaxMemBytes
// is zero.
const DefaultMaxMemBytes = 64 << 20

// Stats are the cache's observability counters.
type Stats struct {
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	Misses   uint64 `json:"misses"`
	// Dedups counts requests that joined an identical in-flight
	// computation instead of starting their own (single-flight).
	Dedups uint64 `json:"dedups"`
	// RemoteLoads counts misses whose bytes were supplied by the remote
	// fabric tier — a worker computed them — rather than a local
	// simulation. A subset of Misses: the probe missed both local
	// tiers, but no local compute was paid.
	RemoteLoads uint64 `json:"remote_loads"`
	Evictions   uint64 `json:"evictions"`
	// WriteErrors counts failed disk-tier persists. A persist failure
	// degrades the disk tier (the computed result is still served and
	// kept in memory) rather than failing the request.
	WriteErrors uint64 `json:"write_errors"`
	Entries     int    `json:"entries"`
	MemBytes    int64  `json:"mem_bytes"`
}

// Hits returns the total number of requests served without computing.
func (s Stats) Hits() uint64 { return s.MemHits + s.DiskHits + s.Dedups }

// NoteRemoteLoad records that one miss was satisfied by the remote
// fabric tier instead of a local compute. The fabric coordinator calls
// it from inside its DoBytes compute closure, so the remote tier shows
// up in the same probe accounting as mem/disk/dedup.
func (c *Cache) NoteRemoteLoad() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.RemoteLoads++
	c.mu.Unlock()
}

type entry struct {
	key   string
	bytes []byte
}

type call struct {
	done chan struct{}
	b    []byte
	err  error
}

// Cache is the two-tier content-addressed result store. The zero value
// is not usable; construct with New. A nil *Cache is valid everywhere
// and behaves as "no caching" (every Do computes), so call sites need
// no conditionals.
type Cache struct {
	maxMem int64 // ≤0 means the memory tier is disabled
	dir    string

	mu     sync.Mutex
	lru    *list.List // of *entry, front = most recent
	items  map[string]*list.Element
	mem    int64
	flight map[string]*call
	stats  Stats
}

// New builds a cache, creating the disk directory if needed.
func New(o Options) (*Cache, error) {
	max := o.MaxMemBytes
	if max == 0 {
		max = DefaultMaxMemBytes
	}
	if o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
	}
	return &Cache{
		maxMem: max,
		dir:    o.Dir,
		lru:    list.New(),
		items:  make(map[string]*list.Element),
		flight: make(map[string]*call),
	}, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.MemBytes = c.mem
	return s
}

// GetBytes returns the stored encoding for key, consulting memory then
// disk; a disk hit is promoted into the memory tier. Disk reads happen
// outside the cache lock, so a slow disk never serializes memory-tier
// traffic. It does not count a miss (Do does), so probes are free of
// stats noise.
func (c *Cache) GetBytes(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	if b, ok := c.memGetLocked(key); ok {
		c.mu.Unlock()
		return b, true
	}
	c.mu.Unlock()
	if b, ok := c.readDisk(key); ok {
		c.mu.Lock()
		c.stats.DiskHits++
		c.storeMemLocked(key, b)
		c.mu.Unlock()
		return b, true
	}
	return nil, false
}

func (c *Cache) memGetLocked(key string) ([]byte, bool) {
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.MemHits++
		return el.Value.(*entry).bytes, true
	}
	return nil, false
}

func (c *Cache) readDisk(key string) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	// Atomic writes rule out torn entries, but not bit rot, fs-level
	// truncation or operator edits. A non-JSON entry is treated as a
	// miss and removed, so corruption costs a recompute — never a
	// served-garbage hit or a crashed harness.
	if !json.Valid(b) {
		os.Remove(c.path(key))
		return nil, false
	}
	return b, true
}

// PutBytes stores an encoding under key in both tiers.
func (c *Cache) PutBytes(key string, b []byte) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	c.storeMemLocked(key, b)
	c.mu.Unlock()
	return c.writeDisk(key, b)
}

func (c *Cache) storeMemLocked(key string, b []byte) {
	// A blob larger than the whole tier would evict everything and
	// still sit over the bound; leave it to the disk tier instead.
	if c.maxMem <= 0 || int64(len(b)) > c.maxMem {
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.mem += int64(len(b)) - int64(len(e.bytes))
		e.bytes = b
		c.lru.MoveToFront(el)
	} else {
		c.items[key] = c.lru.PushFront(&entry{key: key, bytes: b})
		c.mem += int64(len(b))
	}
	for c.mem > c.maxMem && c.lru.Len() > 1 {
		el := c.lru.Back()
		e := el.Value.(*entry)
		c.lru.Remove(el)
		delete(c.items, e.key)
		c.mem -= int64(len(e.bytes))
		c.stats.Evictions++
	}
}

func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".json") }

// writeDisk persists atomically: a unique temp file in the same
// directory is renamed over the final name, so readers never observe a
// partial write.
func (c *Cache) writeDisk(key string, b []byte) error {
	if c.dir == "" {
		return nil
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	return nil
}

// Obs observes the phases of one DoBytes call, for tracing. Every hook
// is optional. Probe fires once the probe's outcome is known, with the
// tier that answered: "mem", "disk", "dedup" (joined an in-flight
// computation), or "miss"; Compute brackets the leader's computation on
// a miss; Store brackets the disk-tier persist (err non-nil on a failed
// write — the result was still served). A nil *Obs is the untraced
// path: DoBytes then takes no timestamps at all, so observation
// costs nothing unless requested.
type Obs struct {
	Probe   func(tier string, start, end time.Time)
	Compute func(start, end time.Time)
	Store   func(start, end time.Time, err error)
}

// probe reports one probe outcome, nil-safe.
func (o *Obs) probe(tier string, start time.Time) {
	if o != nil && o.Probe != nil {
		o.Probe(tier, start, time.Now())
	}
}

// DoBytes returns the encoding stored under key, computing and storing
// it on a miss. Concurrent calls with the same key are single-flighted:
// one leader probes the disk tier and computes if needed, the rest
// block and share its outcome (reported as a hit, counted as a dedup).
// Disk I/O happens outside the cache lock, so slow storage never
// serializes memory-tier traffic; a failed disk persist degrades the
// disk tier (counted in Stats.WriteErrors) instead of failing the
// computed request. A failed compute is not stored. obs observes the
// phases (see Obs); nil is the untraced path.
//
// This is the one store rule: a nil cache or an empty key (a run with
// no content address, such as an opaque controller's) simply computes
// — there is no probe, only obs's Compute bracket.
func (c *Cache) DoBytes(key string, compute func() ([]byte, error), obs *Obs) ([]byte, bool, error) {
	if c == nil || key == "" {
		b, err := observedCompute(compute, obs)
		return b, false, err
	}
	var probeStart time.Time
	if obs != nil {
		probeStart = time.Now()
	}
	c.mu.Lock()
	if b, ok := c.memGetLocked(key); ok {
		c.mu.Unlock()
		obs.probe("mem", probeStart)
		return b, true, nil
	}
	if cl, ok := c.flight[key]; ok {
		c.stats.Dedups++
		c.mu.Unlock()
		<-cl.done
		// A leader cancelled by its own caller (a streamed run whose
		// client disconnected) must not fail unrelated followers: its
		// context error is specific to that caller, not to the
		// computation, so retry — either leading a fresh flight or
		// joining the next one. A follower whose own compute is also
		// cancelled still fails with its own context error. (Each retry
		// reports its own probe span: the retry is a real re-probe.)
		if cl.err != nil && (errors.Is(cl.err, context.Canceled) || errors.Is(cl.err, context.DeadlineExceeded)) {
			return c.DoBytes(key, compute, obs)
		}
		obs.probe("dedup", probeStart)
		return cl.b, cl.err == nil, cl.err
	}
	cl := &call{done: make(chan struct{})}
	c.flight[key] = cl
	c.mu.Unlock()

	// A panicking compute (a supported failure mode — the runner
	// recovers panics above us) must not strand the flight entry, or
	// every future request for this key would block on done forever.
	// Followers get an error; the panic continues unwinding.
	defer func() {
		if r := recover(); r != nil {
			c.mu.Lock()
			delete(c.flight, key)
			c.mu.Unlock()
			cl.err = fmt.Errorf("resultcache: in-flight computation for %s panicked: %v", key, r)
			close(cl.done)
			panic(r)
		}
	}()

	diskHit := false
	if b, ok := c.readDisk(key); ok {
		cl.b, diskHit = b, true
		obs.probe("disk", probeStart)
	} else {
		obs.probe("miss", probeStart)
		cl.b, cl.err = observedCompute(compute, obs)
	}

	c.mu.Lock()
	if diskHit {
		c.stats.DiskHits++
	} else {
		c.stats.Misses++
	}
	if cl.err == nil {
		c.storeMemLocked(key, cl.b)
	}
	delete(c.flight, key)
	c.mu.Unlock()
	close(cl.done)

	if cl.err == nil && !diskHit {
		var storeStart time.Time
		if obs != nil {
			storeStart = time.Now()
		}
		werr := c.writeDisk(key, cl.b)
		if obs != nil && obs.Store != nil {
			obs.Store(storeStart, time.Now(), werr)
		}
		if werr != nil {
			c.mu.Lock()
			c.stats.WriteErrors++
			c.mu.Unlock()
		}
	}
	return cl.b, diskHit, cl.err
}

// observedCompute brackets compute with the Obs.Compute hook (nil-safe
// on both obs and the hook).
func observedCompute(compute func() ([]byte, error), obs *Obs) ([]byte, error) {
	if obs == nil || obs.Compute == nil {
		return compute()
	}
	start := time.Now()
	b, err := compute()
	obs.Compute(start, time.Now())
	return b, err
}

// DoResult is DoBytes over a simulation: on a miss it runs, stores the
// canonical encoding, and returns the computed Result unchanged (so a
// cold cache is transparent to golden outputs); on a hit it decodes the
// stored bytes — byte-identical to a recompute because runs are pure
// and the encoding round-trips exactly, a property the package tests
// enforce. Under DoBytes's store rule (nil cache or empty key) it runs
// directly, without encoding.
func (c *Cache) DoResult(key string, run func() (stats.Result, error)) (stats.Result, bool, error) {
	if c == nil || key == "" {
		r, err := run()
		return r, false, err
	}
	var computed *stats.Result
	b, hit, err := c.DoBytes(key, func() ([]byte, error) {
		r, err := run()
		if err != nil {
			return nil, err
		}
		computed = &r
		return EncodeResult(r)
	}, nil)
	if err != nil {
		return stats.Result{}, hit, err
	}
	if computed != nil {
		return *computed, hit, nil
	}
	r, err := DecodeResult(b)
	return r, hit, err
}
