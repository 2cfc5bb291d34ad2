package hindex

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"layeredsg/internal/node"
)

// newNode allocates a data node with a given life ID from a test's arena
// (the index only ever sees the node pointer and its life ID).
func newNode(a *node.Arena[int64, int64], key int64, id uint64) *node.Node[int64, int64] {
	return a.NewData(key, key, 0, 0, node.Owner{}, id, 0)
}

func TestPublishLookupRoundTrip(t *testing.T) {
	a := node.NewArena[int64, int64](1, 1)
	x := New[int64, int64](0)
	const keys = 1000
	nodes := make([]*node.Node[int64, int64], keys)
	for k := int64(0); k < keys; k++ {
		nodes[k] = newNode(a, k, uint64(k+1))
		x.Publish(k, nodes[k], uint64(k+1))
	}
	for k := int64(0); k < keys; k++ {
		n, id, ok := x.Lookup(k)
		if !ok || n != nodes[k] || id != uint64(k+1) {
			t.Fatalf("Lookup(%d) = (%p, %d, %v), want (%p, %d, true)", k, n, id, ok, nodes[k], k+1)
		}
	}
	if _, _, ok := x.Lookup(keys + 1); ok {
		t.Fatal("Lookup of an unpublished key returned ok")
	}
	st := x.Stats()
	if st.Entries != keys {
		t.Fatalf("Stats.Entries = %d, want %d", st.Entries, keys)
	}
}

func TestUnpublishTombstonesAndRevives(t *testing.T) {
	a := node.NewArena[int64, int64](1, 1)
	x := New[int64, int64](0)
	n1 := newNode(a, 7, 1)
	x.Publish(7, n1, 1)
	x.Unpublish(7, n1)
	if _, _, ok := x.Lookup(7); ok {
		t.Fatal("Lookup found a tombstoned entry")
	}
	// A republish revives the same entry in place.
	before := x.Stats().Entries
	n2 := newNode(a, 7, 2)
	x.Publish(7, n2, 2)
	if got := x.Stats().Entries; got != before {
		t.Fatalf("republish allocated a new entry: Entries %d -> %d", before, got)
	}
	n, id, ok := x.Lookup(7)
	if !ok || n != n2 || id != 2 {
		t.Fatalf("Lookup(7) after republish = (%p, %d, %v), want n2", n, id, ok)
	}
	// Unpublish with a stale node must not clobber the newer publish.
	x.Unpublish(7, n1)
	if _, _, ok := x.Lookup(7); !ok {
		t.Fatal("stale Unpublish clobbered a newer publish")
	}
}

func TestPublishKeepsLiveIncumbent(t *testing.T) {
	a := node.NewArena[int64, int64](1, 1)
	x := New[int64, int64](0)
	live := newNode(a, 3, 10) // unmarked: LiveAs(10) holds
	x.Publish(3, live, 10)
	// A laggard publish from a previous life must lose to the live incumbent.
	stale := newNode(a, 3, 4)
	x.Publish(3, stale, 4)
	n, id, ok := x.Lookup(3)
	if !ok || n != live || id != 10 {
		t.Fatalf("Lookup(3) = (%p, %d, %v), want the live incumbent", n, id, ok)
	}
	// Once the incumbent is retired (marked), a new publish wins.
	live.RawStore(0, nil, true, false)
	next := newNode(a, 3, 11)
	x.Publish(3, next, 11)
	n, id, ok = x.Lookup(3)
	if !ok || n != next || id != 11 {
		t.Fatalf("Lookup(3) after retire = (%p, %d, %v), want the new life", n, id, ok)
	}
}

func TestGrowthKeepsAllEntriesReachable(t *testing.T) {
	a := node.NewArena[int64, int64](1, 1)
	x := New[int64, int64](0)
	const keys = initialBuckets * loadFactor * 8 // forces several doublings
	for k := int64(0); k < keys; k++ {
		x.Publish(k, newNode(a, k, uint64(k+1)), uint64(k+1))
	}
	st := x.Stats()
	if st.Buckets <= initialBuckets {
		t.Fatalf("bucket count never grew: %d", st.Buckets)
	}
	for k := int64(0); k < keys; k++ {
		if _, id, ok := x.Lookup(k); !ok || id != uint64(k+1) {
			t.Fatalf("Lookup(%d) after growth = (id=%d, ok=%v)", k, id, ok)
		}
	}
}

func TestSizeHintPresizes(t *testing.T) {
	x := New[int64, int64](1 << 16)
	if got := x.Stats().Buckets; got < (1<<16)/loadFactor {
		t.Fatalf("Stats.Buckets = %d, want >= %d", got, (1<<16)/loadFactor)
	}
}

// TestListOrderInvariant walks the whole split-ordered list checking it is
// strictly sorted by (split-order key, map key) with dummies interleaved at
// their bucket positions.
func TestListOrderInvariant(t *testing.T) {
	a := node.NewArena[int64, int64](1, 1)
	x := New[int64, int64](0)
	for k := int64(0); k < 5000; k++ {
		x.Publish(k, newNode(a, k, uint64(k+1)), uint64(k+1))
	}
	head := x.segments[0].Load()
	prev := (*head)[0].Load()
	count := 0
	for e := prev.next.Load(); e != nil; e = e.next.Load() {
		if e.so < prev.so || (e.so == prev.so && (prev.dummy() || e.dummy() || e.key <= prev.key)) {
			t.Fatalf("list order violated: (%d,%v) then (%d,%v)", prev.so, prev.key, e.so, e.key)
		}
		if e.dummy() {
			b := bits.Reverse64(e.so)
			if d := x.dummySlot(b).Load(); d != e {
				t.Fatalf("dummy for bucket %d not registered in the directory", b)
			}
		} else {
			count++
		}
		prev = e
	}
	if count != 5000 {
		t.Fatalf("walked %d regular entries, want 5000", count)
	}
}

// TestCollidingHashes forces distinct keys into identical split-order
// positions via the string key type (crafted FNV collisions are hard; instead
// this exercises the key tiebreak by checking many keys per bucket at the
// initial table size, where 64-bit hashes collide per-bucket constantly).
func TestCollidingBuckets(t *testing.T) {
	a := node.NewArena[string, int64](1, 1)
	x := New[string, int64](0)
	keys := make([]string, 3000) // ~12 keys per initial bucket
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
		n := a.NewData(keys[i], int64(i), 0, 0, node.Owner{}, uint64(i+1), 0)
		x.Publish(keys[i], n, uint64(i+1))
	}
	for i, k := range keys {
		if _, id, ok := x.Lookup(k); !ok || id != uint64(i+1) {
			t.Fatalf("Lookup(%q) = (id=%d, ok=%v)", k, id, ok)
		}
	}
	if _, _, ok := x.Lookup("key-99999"); ok {
		t.Fatal("Lookup of an unpublished string key returned ok")
	}
}

// TestConcurrentPublishLookup hammers the index from many goroutines —
// publishes, lookups, tombstones, and revives on an overlapping key range —
// primarily as a -race target, with per-key referential integrity checked
// throughout: a lookup must only ever return a node that was published under
// that key.
func TestConcurrentPublishLookup(t *testing.T) {
	a := node.NewArena[int64, int64](1, 1)
	x := New[int64, int64](0)
	const (
		workers = 8
		keys    = 512
		rounds  = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := int64((r*7 + w*13) % keys)
				id := uint64(w*rounds+r) + 1
				n := newNode(a, k, id)
				switch r % 3 {
				case 0:
					x.Publish(k, n, id)
				case 1:
					if got, _, ok := x.Lookup(k); ok && got.Key() != k {
						t.Errorf("Lookup(%d) returned a node holding key %d", k, got.Key())
						return
					}
				case 2:
					if got, _, ok := x.Lookup(k); ok {
						x.Unpublish(k, got)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Every key is still resolvable after a fresh publish. Live incumbents win
	// publish races by design, so retire the storm's survivor first — in real
	// use the lazy protocol guarantees at most one unmarked node per key.
	for k := int64(0); k < keys; k++ {
		if got, _, ok := x.Lookup(k); ok {
			got.RawStore(0, nil, true, false)
		}
		n := newNode(a, k, uint64(1<<40)+uint64(k))
		x.Publish(k, n, n.ID())
		if got, _, ok := x.Lookup(k); !ok || got != n {
			t.Fatalf("Lookup(%d) after final publish = (%p, ok=%v), want %p", k, got, ok, n)
		}
	}
}

// TestConcurrentGrowth races bucket doubling against publishes: every entry
// linked during the storm must stay reachable afterwards.
func TestConcurrentGrowth(t *testing.T) {
	a := node.NewArena[int64, int64](1, 1)
	x := New[int64, int64](0)
	const (
		workers = 8
		perW    = 4000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * perW)
			for i := int64(0); i < perW; i++ {
				k := base + i
				x.Publish(k, newNode(a, k, uint64(k+1)), uint64(k+1))
			}
		}(w)
	}
	wg.Wait()
	for k := int64(0); k < workers*perW; k++ {
		if _, id, ok := x.Lookup(k); !ok || id != uint64(k+1) {
			t.Fatalf("Lookup(%d) = (id=%d, ok=%v) after concurrent growth", k, id, ok)
		}
	}
	if st := x.Stats(); st.Entries != workers*perW {
		t.Fatalf("Stats.Entries = %d, want %d", st.Entries, workers*perW)
	}
}
