package layeredsg

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"layeredsg/internal/core"
	"layeredsg/internal/node"
)

// TestTorture subjects every algorithm to a heavier mixed workload than the
// unit tests: each thread owns a deterministic key range (verified exactly
// at the end) *and* churns a shared contended range (verified structurally).
// Run with -short to skip.
func TestTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("torture is slow")
	}
	threads := clampThreads(8)
	for _, name := range Algorithms() {
		t.Run(name, func(t *testing.T) {
			machine := testMachine(t, threads)
			a, err := NewAdapter(name, machine, AdapterOptions{
				KeySpace:         1 << 12,
				CommissionPeriod: 30 * time.Microsecond,
				Seed:             99,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			runTorture(t, threads, 300, 5000, 31, a.Handle)
		})
	}
}

// TestTorturePackedRefs runs the TestTorture workload on the layered
// variants in both placements of the packed level words: "packed", where
// the map's height stays below node.MaxArenaLevels and every word sits
// inline in its arena slot, and "tall", a 512-thread machine whose height
// reaches past it so the upper words come from the arena's per-chunk
// overflow slab. Only the first few handles run, so `go test -race`
// exercises the overflow words under real concurrency without starting
// hundreds of goroutines.
func TestTorturePackedRefs(t *testing.T) {
	if testing.Short() {
		t.Skip("torture is slow")
	}
	threads := clampThreads(8)
	shapes := []struct {
		name    string
		logical int
	}{{"packed", threads}, {"tall", 512}}
	for _, kind := range []Kind{LayeredSG, LazyLayeredSG, LayeredSSG} {
		for _, shape := range shapes {
			t.Run(kind.String()+"/"+shape.name, func(t *testing.T) {
				m, err := New[int64, int64](Config{
					Machine:          testMachine(t, shape.logical),
					Kind:             kind,
					CommissionPeriod: 30 * time.Microsecond,
					Seed:             99,
				})
				if err != nil {
					t.Fatal(err)
				}
				if tall := m.MaxLevel() >= node.MaxArenaLevels; tall != (shape.name == "tall") {
					t.Fatalf("MaxLevel() = %d on %d threads: overflow words used = %v", m.MaxLevel(), shape.logical, tall)
				}
				runTorture(t, threads, 200, 4000, 17, func(th int) OpHandle { return m.Handle(th) })
				if t.Failed() {
					return
				}
				if err := m.SharedStructure().Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// runTorture drives threads goroutines, one per handle: each interleaves
// inserts into its own key range (every odd key removed again) with
// sharedOps random operations on a contended shared range, then the owned
// ranges are checked exactly through handle 0.
func runTorture(t *testing.T, threads int, ownedKeys, sharedOps, seedMul int64, handle func(int) OpHandle) {
	t.Helper()
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			h := handle(th)
			rng := rand.New(rand.NewSource(int64(th) * seedMul))
			base := int64(1<<20) + int64(th)*10000
			// Interleave deterministic owned-range work with shared
			// chaos.
			for k := int64(0); k < ownedKeys; k++ {
				if !h.Insert(base+k, k) {
					t.Errorf("thread %d: owned insert %d failed", th, base+k)
					return
				}
				for j := int64(0); j < sharedOps/ownedKeys; j++ {
					key := rng.Int63n(512)
					switch rng.Intn(3) {
					case 0:
						h.Insert(key, key)
					case 1:
						h.Remove(key)
					default:
						h.Contains(key)
					}
				}
				if k%2 == 1 {
					if !h.Remove(base + k) {
						t.Errorf("thread %d: owned remove %d failed", th, base+k)
						return
					}
				}
				runtime.Gosched()
			}
		}(th)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Owned ranges: exact.
	h := handle(0)
	for th := 0; th < threads; th++ {
		base := int64(1<<20) + int64(th)*10000
		for k := int64(0); k < ownedKeys; k++ {
			want := k%2 == 0
			if got := h.Contains(base + k); got != want {
				t.Fatalf("Contains(%d) = %v want %v", base+k, got, want)
			}
		}
	}
}

// TestTortureWithReaders mixes writer handles, read-only reader handles, and
// periodic jump-index publication on the layered map, with oversubscription
// (more logical threads than any real host core count).
func TestTortureWithReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("torture is slow")
	}
	// Deliberately oversubscribed relative to the clamped writer count, but
	// still bounded by the host so tiny CI runners finish in sane time.
	writers, readers := clampThreads(12), clampThreads(4)
	machine := testMachine(t, writers+readers)
	m, err := New[int64, int64](Config{
		Machine:          machine,
		Kind:             LazyLayeredSG,
		CommissionPeriod: 20 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for wIdx := 0; wIdx < writers; wIdx++ {
		writerWG.Add(1)
		go func(wIdx int) {
			defer writerWG.Done()
			h := m.Handle(wIdx)
			rng := rand.New(rand.NewSource(int64(wIdx)))
			for i := 0; i < 8000; i++ {
				key := rng.Int63n(1024)
				if rng.Intn(2) == 0 {
					h.Insert(key, key)
				} else {
					h.Remove(key)
				}
				if i%200 == 0 {
					h.PublishJumpIndex()
					runtime.Gosched()
				}
			}
		}(wIdx)
	}
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rh := m.ReaderHandle(writers + r)
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				rh.Contains(rng.Int63n(1024))
				runtime.Gosched()
			}
		}(r)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	// Final agreement between a fresh reader and a writer handle.
	rh := m.ReaderHandle(writers)
	h := m.Handle(0)
	for k := int64(0); k < 1024; k++ {
		if rh.Contains(k) != h.Contains(k) {
			t.Fatalf("reader/writer disagree on %d", k)
		}
	}
}

// TestJitteryClock injects a non-monotonic clock into the lazy protocol: the
// commission logic must stay safe (no panics, no lost keys) even when time
// jumps backwards.
func TestJitteryClock(t *testing.T) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(5))
	now := int64(0)
	clock := func() int64 {
		mu.Lock()
		defer mu.Unlock()
		now += rng.Int63n(100000) - 20000 // mostly forward, sometimes backward
		return now
	}
	machine := testMachine(t, 4)
	m, err := core.New[int64, int64](core.Config{
		Machine:          machine,
		Kind:             core.LazyLayeredSG,
		CommissionPeriod: time.Microsecond,
		Clock:            clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for th := 0; th < 4; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			h := m.Handle(th)
			r := rand.New(rand.NewSource(int64(th)))
			for i := 0; i < 3000; i++ {
				key := r.Int63n(64)
				switch r.Intn(3) {
				case 0:
					h.Insert(key, key)
				case 1:
					h.Remove(key)
				default:
					h.Contains(key)
				}
			}
		}(th)
	}
	wg.Wait()
	keys := m.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("bottom list corrupted under jittery clock: %v", keys)
		}
	}
	h := m.Handle(0)
	probe := int64(100)
	if !h.Insert(probe, 1) || !h.Contains(probe) || !h.Remove(probe) {
		t.Fatal("map broken after jittery-clock run")
	}
}
