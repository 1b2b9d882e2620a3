// Package rescache is the serving tier's result cache: an N-way
// sharded, bounded LRU keyed by opaque strings, fronted by
// singleflight so concurrent identical misses collapse into one
// expensive fill instead of a stampede.
//
// The paper's economics make every surfaced page a query-time
// liability: surfacing is offline, but the resulting index answers
// ordinary search traffic, and web query traffic is heavily skewed —
// the same head queries arrive over and over (§3.2's long-tail curve
// is exactly the statement that a small head carries half the load).
// Re-running BM25 scoring for a query the index answered microseconds
// ago is pure waste; this cache turns the repeated-query hot path into
// O(copy).
//
// Consistency is delegated to the key: callers fold every input that
// can change the answer — the engine's snapshot generation, the
// normalized query, pagination, filters — into the key string; a cache
// lives on one engine, whose index nothing writes, and a new index
// comes in a new engine with a new cache, so there is no invalidation
// traffic. There is deliberately no Delete/Flush: an entry is correct
// for its key forever; it just stops being asked for.
//
// Aliasing safety: the cache never hands two callers the same value.
// Every stored value is cloned on the way out (and on the way in, so
// the filling caller cannot mutate the cached copy after the fact).
// Callers may therefore append to / sort / annotate what they get
// back.
package rescache

import (
	"context"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count New uses for shards <= 0. Sixteen
// ways is enough that cache-lock contention disappears behind the
// index's own read path at any realistic core count.
const DefaultShards = 16

// Stats is one atomic-ish snapshot of the cache's counters. Each
// counter is read atomically (no torn single values); the set is
// collected without a global lock, so the fields may be a few
// operations apart from each other under load — fine for monitoring,
// which is their job. All counters are monotonic over the cache's
// lifetime except Entries, which is the current resident count.
type Stats struct {
	// Hits counts lookups answered from a resident entry.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that ran the fill (singleflight leaders).
	Misses uint64 `json:"misses"`
	// Collapsed counts lookups that piggybacked on another caller's
	// in-flight fill instead of scanning themselves — the stampedes
	// that did not happen.
	Collapsed uint64 `json:"collapsed"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the current resident entry count.
	Entries int `json:"entries"`
	// Capacity is the configured bound.
	Capacity int `json:"capacity"`
}

// HitRatio is hits over lookups served from cache or fill, in [0, 1].
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses + s.Collapsed
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Collapsed) / float64(total)
}

// entry is one resident value on a shard's intrusive LRU list.
type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

// flight is one in-progress fill; followers wait on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	ok   bool // val is valid (fill succeeded)
}

// shard is one slice of the key space: a map index over an intrusive
// doubly-linked LRU ring, plus the in-flight fill table.
type shard[V any] struct {
	mu       sync.Mutex
	entries  map[string]*entry[V]
	inflight map[string]*flight[V]
	// head is most recent, tail least; nil when empty.
	head, tail *entry[V]
	cap        int
}

// Cache is a sharded bounded LRU with singleflight fills. The zero
// value is not usable; construct with New. A nil *Cache is a valid
// no-op cache: Do runs the fill directly.
type Cache[V any] struct {
	shards   []shard[V]
	seed     maphash.Seed
	clone    func(V) V
	capTotal int

	hits      atomic.Uint64
	misses    atomic.Uint64
	collapsed atomic.Uint64
	evictions atomic.Uint64
	entries   atomic.Int64
}

// New builds a cache bounded to capacity entries spread over nShards
// shards (DefaultShards when nShards <= 0; capacity must be >= 1).
// clone deep-copies a value so no two callers alias cached state; nil
// means values are safe to share as-is (immutable).
func New[V any](capacity, nShards int, clone func(V) V) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	if nShards <= 0 {
		nShards = DefaultShards
	}
	if nShards > capacity {
		nShards = capacity
	}
	if clone == nil {
		clone = func(v V) V { return v }
	}
	c := &Cache[V]{
		shards:   make([]shard[V], nShards),
		seed:     maphash.MakeSeed(),
		clone:    clone,
		capTotal: capacity,
	}
	// Spread capacity exactly: the first capacity%nShards shards take
	// one extra entry, so the per-shard bounds sum to the configured
	// total (nShards <= capacity guarantees every shard holds >= 1).
	per, extra := capacity/nShards, capacity%nShards
	for i := range c.shards {
		cp := per
		if i < extra {
			cp++
		}
		c.shards[i] = shard[V]{
			entries:  make(map[string]*entry[V], cp),
			inflight: map[string]*flight[V]{},
			cap:      cp,
		}
	}
	return c
}

// Capacity is the total entry bound, exactly as configured.
func (c *Cache[V]) Capacity() int {
	if c == nil {
		return 0
	}
	return c.capTotal
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Collapsed: c.collapsed.Load(),
		Evictions: c.evictions.Load(),
		Entries:   int(c.entries.Load()),
		Capacity:  c.Capacity(),
	}
}

// Do answers key from the cache, or computes it with fill. The bool
// reports whether the value came from cached/collapsed state (true) or
// from this caller's own fill (false). fill errors are returned to the
// filling caller only and nothing is cached; followers of a failed
// fill re-attempt (each under its own ctx), so one canceled request
// never poisons its neighbors. ctx bounds only the wait for another
// caller's in-flight fill — fill itself is responsible for honoring
// its own context.
func (c *Cache[V]) Do(ctx context.Context, key string, fill func() (V, error)) (V, bool, error) {
	if c == nil {
		v, err := fill()
		return v, false, err
	}
	h := maphash.String(c.seed, key)
	sh := &c.shards[h%uint64(len(c.shards))]
	for {
		if err := ctx.Err(); err != nil {
			var zero V
			return zero, false, err
		}
		sh.mu.Lock()
		if e, ok := sh.entries[key]; ok {
			sh.moveToFront(e)
			v := c.clone(e.val)
			sh.mu.Unlock()
			c.hits.Add(1)
			return v, true, nil
		}
		if f, ok := sh.inflight[key]; ok {
			sh.mu.Unlock()
			c.collapsed.Add(1)
			select {
			case <-f.done:
			case <-ctx.Done():
				var zero V
				return zero, false, ctx.Err()
			}
			if f.ok {
				// The flight's value is immutable once done closes;
				// clone without re-taking the shard lock.
				return c.clone(f.val), true, nil
			}
			// The leader failed (its context died, most likely). Loop
			// and try again as a fresh caller rather than inheriting
			// an error that was never ours.
			continue
		}
		f := &flight[V]{done: make(chan struct{})}
		sh.inflight[key] = f
		sh.mu.Unlock()
		break
	}
	// This caller is the singleflight leader.
	c.misses.Add(1)
	v, err := c.leadFill(sh, key, fill)
	return v, false, err
}

// leadFill runs fill as the leader for key, publishes the result to
// followers, and installs it in the shard on success.
func (c *Cache[V]) leadFill(sh *shard[V], key string, fill func() (V, error)) (V, error) {
	v, err := fill()
	sh.mu.Lock()
	f := sh.inflight[key]
	delete(sh.inflight, key)
	if err == nil {
		f.val = c.clone(v) // cache owns its own copy; leader keeps v
		f.ok = true
		if _, resident := sh.entries[key]; !resident {
			e := &entry[V]{key: key, val: f.val}
			sh.entries[key] = e
			sh.pushFront(e)
			c.entries.Add(1)
			if len(sh.entries) > sh.cap {
				evicted := sh.popTail()
				delete(sh.entries, evicted.key)
				c.entries.Add(-1)
				c.evictions.Add(1)
			}
		}
	}
	sh.mu.Unlock()
	close(f.done)
	return v, err
}

// pushFront links e as the most-recently-used entry. Caller holds mu.
func (sh *shard[V]) pushFront(e *entry[V]) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// moveToFront marks e most recently used. Caller holds mu.
func (sh *shard[V]) moveToFront(e *entry[V]) {
	if sh.head == e {
		return
	}
	// Unlink (e is not head, so e.prev != nil).
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	sh.pushFront(e)
}

// popTail unlinks and returns the least-recently-used entry. Caller
// holds mu and guarantees the list is non-empty.
func (sh *shard[V]) popTail() *entry[V] {
	e := sh.tail
	sh.tail = e.prev
	if sh.tail != nil {
		sh.tail.next = nil
	} else {
		sh.head = nil
	}
	e.prev, e.next = nil, nil
	return e
}
