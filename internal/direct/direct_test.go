package direct

import (
	"math/rand"
	"sync"
	"testing"

	"layeredsg/internal/node"
	"layeredsg/internal/numa"
)

func machine(t *testing.T, threads int) *numa.Machine {
	t.Helper()
	topo, err := numa.New(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := numa.Pin(topo, threads)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func shapes() []Shape { return []Shape{SkipList, SkipGraph, LinkedList} }

func newMap(t *testing.T, shape Shape, threads int) *Map[int64, int64] {
	t.Helper()
	m, err := New[int64, int64](Config{
		Machine: machine(t, threads),
		Shape:   shape,
		Height:  8,
		Seed:    3,
	})
	if err != nil {
		t.Fatalf("New(%v): %v", shape, err)
	}
	return m
}

func TestValidation(t *testing.T) {
	if _, err := New[int64, int64](Config{Shape: SkipList}); err == nil {
		t.Fatal("nil machine accepted")
	}
	if _, err := New[int64, int64](Config{Machine: machine(t, 2), Shape: SkipList}); err == nil {
		t.Fatal("skip list without height accepted")
	}
	if _, err := New[int64, int64](Config{Machine: machine(t, 2), Shape: Shape(9)}); err == nil {
		t.Fatal("unknown shape accepted")
	}
}

func TestSequentialModel(t *testing.T) {
	for _, shape := range shapes() {
		t.Run(shape.String(), func(t *testing.T) {
			m := newMap(t, shape, 2)
			h := m.Handle(0)
			model := make(map[int64]bool)
			rng := rand.New(rand.NewSource(17))
			for i := 0; i < 5000; i++ {
				key := rng.Int63n(200)
				switch rng.Intn(3) {
				case 0:
					if got, want := h.Insert(key, key*2), !model[key]; got != want {
						t.Fatalf("op %d Insert(%d)=%v want %v", i, key, got, want)
					}
					model[key] = true
				case 1:
					if got, want := h.Remove(key), model[key]; got != want {
						t.Fatalf("op %d Remove(%d)=%v want %v", i, key, got, want)
					}
					delete(model, key)
				default:
					v, ok := h.Get(key)
					if ok != model[key] {
						t.Fatalf("op %d Get(%d) present=%v want %v", i, key, ok, model[key])
					}
					if ok && v != key*2 {
						t.Fatalf("op %d Get(%d) value=%d", i, key, v)
					}
				}
			}
			if m.Len() != len(model) {
				t.Fatalf("Len=%d model=%d", m.Len(), len(model))
			}
		})
	}
}

func TestConcurrentContention(t *testing.T) {
	const threads = 8
	for _, shape := range shapes() {
		t.Run(shape.String(), func(t *testing.T) {
			m := newMap(t, shape, threads)
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					h := m.Handle(th)
					rng := rand.New(rand.NewSource(int64(th)))
					for i := 0; i < 2000; i++ {
						k := rng.Int63n(64)
						switch rng.Intn(3) {
						case 0:
							h.Insert(k, k)
						case 1:
							h.Remove(k)
						default:
							h.Contains(k)
						}
					}
				}(th)
			}
			wg.Wait()
			keys := m.Keys()
			for i := 1; i < len(keys); i++ {
				if keys[i-1] >= keys[i] {
					t.Fatalf("bottom list unsorted/duplicated: %v", keys)
				}
			}
		})
	}
}

// TestSkipGraphPartitionHeight checks the non-layered skip graph derives its
// height from the thread count, as the paper prescribes.
func TestSkipGraphPartitionHeight(t *testing.T) {
	m := newMap(t, SkipGraph, 8)
	if got := m.SharedStructure().MaxLevel(); got != 2 {
		t.Fatalf("height = %d want 2 for 8 threads", got)
	}
	ll := newMap(t, LinkedList, 8)
	if got := ll.SharedStructure().MaxLevel(); got != 0 {
		t.Fatalf("linked list height = %d", got)
	}
	sl := newMap(t, SkipList, 8)
	if got := sl.SharedStructure().MaxLevel(); got != 8 {
		t.Fatalf("skip list height = %d want Height", got)
	}
}

// tallSkipList builds the skip-list baseline at Height 17 — log2 of a
// 2^17-key space, the paper's LC setting — preloaded with every even key
// below 2*keys. Its nodes taller than node.MaxArenaLevels-1 keep their upper
// levels in the arena's overflow slabs.
func tallSkipList(t *testing.T, keys int64) *Map[int64, int64] {
	t.Helper()
	m, err := New[int64, int64](Config{Machine: machine(t, 2), Shape: SkipList, Height: 17, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h := m.Handle(0)
	for k := int64(0); k < keys; k++ {
		if !h.Insert(2*k, k) {
			t.Fatalf("preload Insert(%d) failed", 2*k)
		}
	}
	return m
}

func TestTallSkipList(t *testing.T) {
	m := tallSkipList(t, 4096)
	sg := m.SharedStructure()
	tallest := 0
	for n := sg.BottomHead().RawNext(0); n != sg.Tail(); n = n.RawNext(0) {
		tallest = max(tallest, n.TopLevel())
	}
	if tallest < node.MaxArenaLevels {
		t.Fatalf("tallest node has top level %d; the seed never reached the overflow levels", tallest)
	}
	h := m.Handle(1)
	model := make(map[int64]int64)
	for k := int64(0); k < 4096; k++ {
		model[2*k] = k
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20000; i++ {
		key := rng.Int63n(8192)
		_, present := model[key]
		if rng.Intn(2) == 0 {
			if got := h.Insert(key, -key); got == present {
				t.Fatalf("op %d Insert(%d)=%v with present=%v", i, key, got, present)
			}
			if !present {
				model[key] = -key
			}
		} else {
			if got := h.Remove(key); got != present {
				t.Fatalf("op %d Remove(%d)=%v with present=%v", i, key, got, present)
			}
			delete(model, key)
		}
	}
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
	keys := m.Keys()
	if len(keys) != len(model) {
		t.Fatalf("Len=%d model=%d", len(keys), len(model))
	}
	for _, k := range keys {
		v, ok := h.Get(k)
		if want, in := model[k]; !in || !ok || v != want {
			t.Fatalf("Get(%d) = (%d, %v), model (%d, %v)", k, v, ok, want, in)
		}
	}
}

// TestSkipListChurnAllocs pins the baseline's allocation cost: a successful
// remove+insert pair mutates level references in place (packed words) and
// takes its node from the arena, so the only allocations left are the
// arena's chunk growth — three (slots, overflow slab, chunk table) per 512
// pairs, which AllocsPerRun's per-run average rounds to 0.
func TestSkipListChurnAllocs(t *testing.T) {
	m := tallSkipList(t, 1024)
	h := m.Handle(0)
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		k := 2 * (i % 1024)
		i++
		if !h.Remove(k) || !h.Insert(k, k) {
			t.Fatalf("churn pair on %d failed", k)
		}
	})
	if allocs != 0 {
		t.Fatalf("remove+insert pair allocates %v per op, want 0", allocs)
	}
}
