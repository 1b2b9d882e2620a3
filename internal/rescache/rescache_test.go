package rescache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func bg() context.Context { return context.Background() }

func TestHitMissAndCounters(t *testing.T) {
	fills := 0
	c := New[int](8, 2, nil)
	fill := func() (int, error) { fills++; return 42, nil }

	v, cached, err := c.Do(bg(), "k", fill)
	if err != nil || cached || v != 42 {
		t.Fatalf("first Do = (%d, %v, %v), want (42, false, nil)", v, cached, err)
	}
	v, cached, err = c.Do(bg(), "k", fill)
	if err != nil || !cached || v != 42 {
		t.Fatalf("second Do = (%d, %v, %v), want (42, true, nil)", v, cached, err)
	}
	if fills != 1 {
		t.Fatalf("fill ran %d times, want 1", fills)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio %v, want 0.5", got)
	}
}

func TestFillErrorNotCached(t *testing.T) {
	c := New[int](8, 1, nil)
	boom := errors.New("boom")
	if _, _, err := c.Do(bg(), "k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure left nothing behind: the next Do must fill again.
	v, cached, err := c.Do(bg(), "k", func() (int, error) { return 7, nil })
	if err != nil || cached || v != 7 {
		t.Fatalf("Do after failed fill = (%d, %v, %v), want (7, false, nil)", v, cached, err)
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// The LRU bound: capacity is enforced, the least recently used key is
// the one evicted, and a touched key survives.
func TestLRUEviction(t *testing.T) {
	c := New[int](3, 1, nil)
	fill := func(n int) func() (int, error) { return func() (int, error) { return n, nil } }
	for i := 0; i < 3; i++ {
		c.Do(bg(), fmt.Sprintf("k%d", i), fill(i))
	}
	// Touch k0 so k1 becomes least recently used, then overflow.
	if _, cached, _ := c.Do(bg(), "k0", fill(-1)); !cached {
		t.Fatal("k0 should be resident")
	}
	c.Do(bg(), "k3", fill(3))
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("stats after overflow = %+v", st)
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, cached, _ := c.Do(bg(), k, fill(-1)); !cached {
			t.Fatalf("%s was evicted; LRU order is wrong", k)
		}
	}
	// Checked last: this miss re-inserts k1 and evicts again.
	if _, cached, _ := c.Do(bg(), "k1", fill(1)); cached {
		t.Fatal("k1 survived eviction; LRU order is wrong")
	}
}

// Singleflight: N concurrent misses on one key run the fill once; the
// followers collapse onto the leader's scan.
func TestSingleflightCollapse(t *testing.T) {
	c := New[int](8, 1, nil)
	var fills atomic.Int32
	gate := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	results := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(bg(), "k", func() (int, error) {
				fills.Add(1)
				<-gate // park the leader so every follower queues up
				return 99, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Wait until the flight is registered and followers have had a
	// chance to pile on, then release the leader.
	for c.Stats().Misses == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times under concurrent identical misses, want 1", got)
	}
	for i, v := range results {
		if v != 99 {
			t.Fatalf("caller %d got %d, want 99", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Collapsed != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits+collapsed", st, callers-1)
	}
}

// A leader whose fill fails must not poison followers: they retry and
// succeed under their own steam.
func TestFollowersSurviveLeaderFailure(t *testing.T) {
	c := New[int](8, 1, nil)
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.Do(bg(), "k", func() (int, error) {
			close(leaderIn)
			<-gate
			return 0, errors.New("leader died")
		})
	}()
	<-leaderIn
	const followers = 4
	got := make([]int, followers)
	errs := make([]error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _, errs[i] = c.Do(bg(), "k", func() (int, error) { return 5, nil })
		}(i)
	}
	// Give followers time to park on the flight, then fail the leader.
	for c.Stats().Collapsed < followers {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if leaderErr == nil {
		t.Fatal("leader's own error was swallowed")
	}
	for i := 0; i < followers; i++ {
		if errs[i] != nil || got[i] != 5 {
			t.Fatalf("follower %d = (%d, %v), want (5, nil)", i, got[i], errs[i])
		}
	}
}

// A follower whose own context dies while waiting gets its context
// error, not the leader's result.
func TestFollowerContextCancel(t *testing.T) {
	c := New[int](8, 1, nil)
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(bg(), "k", func() (int, error) {
			close(leaderIn)
			<-gate
			return 1, nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", func() (int, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled follower got %v, want context.Canceled", err)
	}
	close(gate)
	wg.Wait()
}

// Aliasing: with a clone function, no two callers (leader included)
// share the same backing slice with the cache.
func TestCloneIsolation(t *testing.T) {
	clone := func(v []int) []int { return append([]int(nil), v...) }
	c := New[[]int](8, 1, clone)
	first, _, _ := c.Do(bg(), "k", func() ([]int, error) { return []int{1, 2, 3}, nil })
	first[0] = 999 // leader mutates its copy; the cache must not see it
	second, cached, _ := c.Do(bg(), "k", func() ([]int, error) { return nil, errors.New("unreachable") })
	if !cached || second[0] != 1 {
		t.Fatalf("cached value corrupted by leader mutation: %v (cached=%v)", second, cached)
	}
	second[1] = 777 // a hit's copy is also private
	third, _, _ := c.Do(bg(), "k", func() ([]int, error) { return nil, errors.New("unreachable") })
	if third[1] != 2 {
		t.Fatalf("cached value corrupted by hit mutation: %v", third)
	}
}

// A nil cache is a transparent pass-through.
func TestNilCache(t *testing.T) {
	var c *Cache[int]
	v, cached, err := c.Do(bg(), "k", func() (int, error) { return 3, nil })
	if err != nil || cached || v != 3 {
		t.Fatalf("nil cache Do = (%d, %v, %v)", v, cached, err)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

// Keys spread across shards and the per-shard bounds compose to
// exactly the configured capacity — including when capacity does not
// divide evenly by the shard count (the remainder is distributed, not
// rounded up).
func TestShardedCapacity(t *testing.T) {
	for _, tc := range []struct{ capacity, shards int }{
		{64, 8}, {100, 16}, {7, 3}, {5, 16}, {1, 1},
	} {
		c := New[int](tc.capacity, tc.shards, nil)
		if got := c.Capacity(); got != tc.capacity {
			t.Fatalf("New(%d, %d).Capacity() = %d, want %d", tc.capacity, tc.shards, got, tc.capacity)
		}
		sum := 0
		for i := range c.shards {
			if c.shards[i].cap < 1 {
				t.Fatalf("New(%d, %d): shard %d holds %d entries", tc.capacity, tc.shards, i, c.shards[i].cap)
			}
			sum += c.shards[i].cap
		}
		if sum != tc.capacity {
			t.Fatalf("New(%d, %d): per-shard caps sum to %d", tc.capacity, tc.shards, sum)
		}
		for i := 0; i < 20*tc.capacity; i++ {
			k := fmt.Sprintf("key-%d", i)
			c.Do(bg(), k, func() (int, error) { return i, nil })
		}
		st := c.Stats()
		if st.Entries > tc.capacity {
			t.Fatalf("New(%d, %d): %d resident entries exceed the bound", tc.capacity, tc.shards, st.Entries)
		}
		if st.Evictions == 0 {
			t.Fatalf("New(%d, %d): overfilling evicted nothing", tc.capacity, tc.shards)
		}
	}
}

// Hammer the cache from many goroutines over a small key space — run
// with -race; also asserts every caller sees its key's value.
func TestConcurrentMixedLoad(t *testing.T) {
	c := New[string](32, 4, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g+i)%48)
				want := "v-" + k
				v, _, err := c.Do(bg(), k, func() (string, error) { return want, nil })
				if err != nil || v != want {
					t.Errorf("Do(%s) = (%q, %v)", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("degenerate load: %+v", st)
	}
}
