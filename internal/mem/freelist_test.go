package mem_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"pmemspec/internal/cache"
	"pmemspec/internal/mem"
)

// TestFreeListPolicy checks the recycle policy the PM-image and cache
// pools share, on each kind of value they hold: a released value
// survives garbage collections, a Get returns only a value of its key,
// newest first, and a full list drops its least recently released value.
func TestFreeListPolicy(t *testing.T) {
	t.Run("images", policyCases(
		[2]uint64{256, 512},
		func(size uint64) *mem.Image { return mem.NewImage(mem.DefaultBase, size) },
		func(im *mem.Image) { im.WriteU64(im.Base(), 1) }))
	t.Run("caches", policyCases(
		[2][2]int{{1024, 2}, {1024, 4}},
		func(g [2]int) *cache.Cache { return cache.New("c", g[0], g[1]) },
		func(c *cache.Cache) { c.Insert(0x40) }))
}

// policyCases returns the policy subtests for values built by newV under
// two distinct keys; use mutates a value, so under -race two owners of
// one value race.
func policyCases[K comparable, V comparable](keys [2]K, newV func(K) V, use func(V)) func(*testing.T) {
	return func(t *testing.T) {
		k, other := keys[0], keys[1]
		// take asserts the next Get of key returns want (ok false: none).
		take := func(t *testing.T, f *mem.FreeList[K, V], key K, want V, ok bool) {
			t.Helper()
			got, gotOK := f.Get(key)
			if gotOK != ok || got != want {
				t.Fatalf("Get(%v) = %v, %v; want %v, %v", key, got, gotOK, want, ok)
			}
		}
		var none V

		t.Run("survives-gc", func(t *testing.T) {
			f := mem.NewFreeList[K, V](2)
			a := newV(k)
			f.Put(k, a)
			runtime.GC()
			runtime.GC()
			take(t, f, k, a, true)
		})
		t.Run("keyed", func(t *testing.T) {
			f := mem.NewFreeList[K, V](2)
			a, b := newV(k), newV(other)
			f.Put(k, a)
			f.Put(other, b)
			take(t, f, k, a, true)
			take(t, f, k, none, false)
			take(t, f, other, b, true)
		})
		t.Run("newest-first", func(t *testing.T) {
			f := mem.NewFreeList[K, V](2)
			a, b := newV(k), newV(k)
			f.Put(k, a)
			f.Put(k, b)
			take(t, f, k, b, true)
			take(t, f, k, a, true)
		})
		t.Run("bounded-drops-oldest", func(t *testing.T) {
			const perP = 2
			f := mem.NewFreeList[K, V](perP)
			vs := make([]V, perP*runtime.GOMAXPROCS(0)+1)
			for i := range vs {
				vs[i] = newV(k)
				f.Put(k, vs[i])
			}
			// Newest first, down to vs[1]: vs[0] was dropped.
			for i := len(vs) - 1; i >= 1; i-- {
				take(t, f, k, vs[i], true)
			}
			take(t, f, k, none, false)
		})
		t.Run("concurrent", func(t *testing.T) {
			// Workers cycle values through one list, claiming each value
			// they take: a value handed to two owners at once fails the
			// claim (and, under -race, races in use).
			const workers, rounds = 4, 50
			f := mem.NewFreeList[K, V](2)
			var mu sync.Mutex
			owned := map[V]bool{}
			claim := func(v V) error {
				mu.Lock()
				defer mu.Unlock()
				if owned[v] {
					return fmt.Errorf("value %v handed to two owners", v)
				}
				owned[v] = true
				return nil
			}
			unclaim := func(v V) {
				mu.Lock()
				defer mu.Unlock()
				owned[v] = false
			}
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					key := keys[w%2]
					for r := 0; r < rounds; r++ {
						v, ok := f.Get(key)
						if !ok {
							v = newV(key)
						}
						if err := claim(v); err != nil {
							errs <- err
							return
						}
						use(v)
						unclaim(v)
						f.Put(key, v)
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
