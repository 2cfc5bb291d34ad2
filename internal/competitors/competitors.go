// Package competitors re-implements the core ideas of the three
// state-of-the-art maps the paper compares against, as found in Synchrobench:
//
//   - No Hot Spot skip list (Crain, Gramoli, Raynal, ICDCS'13 [10]): update
//     operations touch only the bottom-level list; the index above it is
//     maintained by a background adaptation thread, so no index cell becomes
//     a CAS hot spot.
//   - Rotating skip list (Dick, Fekete, Gramoli [13]): towers are stored in
//     contiguous arrays ("wheels") for cache efficiency, again maintained in
//     the background; we model the wheels as dense, contiguous index arrays
//     rebuilt frequently.
//   - NUMASK (Daly, Hassan, Spear, Palmieri, DISC'18 [11]): the skip list's
//     higher levels become per-NUMA-zone index layers allocated in each
//     zone's memory; threads consult their own zone's index, so index
//     traffic stays local, while the bottom data layer is shared.
//
// All three share the same skeleton here: a lock-free bottom list (the
// height-0 skip graph, i.e. a Harris-style list with the relink
// optimization) plus background-maintained indexes. They differ exactly
// where the original designs differ: no-hotspot and NUMASK use *live*,
// incrementally adapted tower indexes (single-writer; see liveIndex) —
// shared for no-hotspot, one per NUMA zone for NUMASK — while the rotating
// skip list uses contiguous, binary-searched wheel snapshots. These are
// reimplementations from the papers' ideas, not ports of the original C
// code; see DESIGN.md for the substitution rationale.
package competitors

import (
	"cmp"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"layeredsg/internal/node"
	"layeredsg/internal/numa"
	"layeredsg/internal/skipgraph"
	"layeredsg/internal/stats"
)

// Algorithm selects a competitor.
type Algorithm int

const (
	// NoHotspot is the no-hot-spot skip list [10].
	NoHotspot Algorithm = iota + 1
	// Rotating is the rotating skip list [13].
	Rotating
	// NUMASK is the NUMA-aware skip list [11].
	NUMASK
)

// String implements fmt.Stringer using the paper's labels.
func (a Algorithm) String() string {
	switch a {
	case NoHotspot:
		return "nohotspot"
	case Rotating:
		return "rotating"
	case NUMASK:
		return "numask"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config parameterizes a competitor map.
type Config struct {
	// Machine supplies the thread count and topology; required.
	Machine *numa.Machine
	// Algorithm selects the competitor; required.
	Algorithm Algorithm
	// RebuildInterval overrides the background index rebuild cadence;
	// 0 selects per-algorithm defaults (rotating rebuilds most eagerly).
	RebuildInterval time.Duration
	// SampleStride overrides index density: every stride-th live node enters
	// the index. 0 selects per-algorithm defaults (dense wheels for rotating,
	// sparser towers for nohotspot).
	SampleStride int
	// Recorder, when non-nil, enables instrumentation.
	Recorder *stats.Recorder
	// Seed seeds per-thread RNGs (reserved; the bottom list is height 0).
	Seed int64
}

// indexEntry is one sampled data node in a snapshot index.
type indexEntry[K cmp.Ordered, V any] struct {
	key K
	n   *node.Node[K, V]
}

// snapshot is an immutable index over the bottom list, built by a background
// goroutine. owner attributes index accesses for the locality metrics (for
// NUMASK each zone's snapshot is owned by a thread of that zone, modelling
// zone-local index allocation).
type snapshot[K cmp.Ordered, V any] struct {
	entries []indexEntry[K, V]
	owner   node.Owner
	id      uint64
}

// Map is a competitor concurrent map. Call Close to stop its background
// index maintenance.
type Map[K cmp.Ordered, V any] struct {
	cfg      Config
	sg       *skipgraph.SG[K, V]
	interval time.Duration
	stride   int

	// indexes[z] is zone z's snapshot wheel (rotating only).
	indexes []atomic.Pointer[snapshot[K, V]]
	// live[z] is zone z's single-writer adapted index (no-hotspot: one
	// shared; NUMASK: one per zone).
	live   []*liveIndex[K, V]
	owners []node.Owner
	nextID atomic.Uint64

	handles []*Handle[K, V]

	stop chan struct{}
	done sync.WaitGroup
}

// New builds a competitor map and starts its background maintenance.
func New[K cmp.Ordered, V any](cfg Config) (*Map[K, V], error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("competitors: Config.Machine is required")
	}
	if cfg.Algorithm < NoHotspot || cfg.Algorithm > NUMASK {
		return nil, fmt.Errorf("competitors: unknown algorithm %d", int(cfg.Algorithm))
	}
	interval := cfg.RebuildInterval
	stride := cfg.SampleStride
	switch cfg.Algorithm {
	case Rotating:
		if interval == 0 {
			interval = 2 * time.Millisecond
		}
		if stride == 0 {
			stride = 1 // dense, contiguous wheels
		}
	case NoHotspot:
		if interval == 0 {
			interval = 5 * time.Millisecond
		}
		if stride == 0 {
			stride = 2
		}
	case NUMASK:
		if interval == 0 {
			interval = 5 * time.Millisecond
		}
		if stride == 0 {
			stride = 2
		}
	}

	sg, err := skipgraph.New[K, V](skipgraph.Config{MaxLevel: 0, CleanupDuringSearch: true, ArenaShards: cfg.Machine.Topology().Nodes()})
	if err != nil {
		return nil, err
	}

	zones := 1
	if cfg.Algorithm == NUMASK {
		zones = cfg.Machine.Topology().Nodes()
	}
	m := &Map[K, V]{
		cfg:      cfg,
		sg:       sg,
		interval: interval,
		stride:   stride,
		indexes:  make([]atomic.Pointer[snapshot[K, V]], zones),
		owners:   make([]node.Owner, zones),
		stop:     make(chan struct{}),
	}
	m.live = make([]*liveIndex[K, V], zones)
	for z := 0; z < zones; z++ {
		m.owners[z] = m.zoneOwner(z)
		if cfg.Algorithm == Rotating {
			m.indexes[z].Store(&snapshot[K, V]{owner: m.owners[z], id: 1<<40 | m.nextID.Add(1)<<20})
		} else {
			owner := m.owners[z]
			m.live[z] = newLiveIndex[K, V](12, owner, func() uint64 {
				return 1<<41 | m.nextID.Add(1)<<8
			}, cfg.Seed+int64(z))
		}
	}

	threads := cfg.Machine.Threads()
	m.handles = make([]*Handle[K, V], threads)
	for t := 0; t < threads; t++ {
		var tr *stats.ThreadRecorder
		if cfg.Recorder != nil {
			tr = cfg.Recorder.ThreadRecorder(t)
		}
		zone := 0
		if cfg.Algorithm == NUMASK {
			zone = cfg.Machine.NodeOf(t)
		}
		m.handles[t] = &Handle[K, V]{
			m:     m,
			zone:  zone,
			owner: node.Owner{Thread: int32(t), Node: int32(cfg.Machine.NodeOf(t))},
			tr:    tr,
			res:   sg.NewSearchResult(),
		}
	}

	for z := 0; z < zones; z++ {
		m.done.Add(1)
		go m.maintain(z)
	}
	return m, nil
}

// zoneOwner picks the first pinned thread of a zone as the allocator of that
// zone's index, modelling zone-local index allocation.
func (m *Map[K, V]) zoneOwner(zone int) node.Owner {
	for t := 0; t < m.cfg.Machine.Threads(); t++ {
		if m.cfg.Machine.NodeOf(t) == zone {
			return node.Owner{Thread: int32(t), Node: int32(zone)}
		}
	}
	return node.Owner{Thread: 0, Node: int32(zone)}
}

// Close stops the background maintenance and waits for it to exit.
func (m *Map[K, V]) Close() {
	close(m.stop)
	m.done.Wait()
}

// maintain rebuilds zone z's snapshot index until Close.
func (m *Map[K, V]) maintain(zone int) {
	defer m.done.Done()
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			m.rebuild(zone)
		case <-m.stop:
			return
		}
	}
}

// rebuild runs one maintenance pass for a zone: the rotating skip list
// republishes its contiguous wheel snapshot; no-hotspot and NUMASK repair
// their live indexes incrementally (the "adapting" thread of [10]).
func (m *Map[K, V]) rebuild(zone int) {
	if li := m.live[zone]; li != nil {
		li.mu.Lock()
		li.adapt(m.sg.BottomHead(), m.stride, nil)
		li.mu.Unlock()
		return
	}
	var entries []indexEntry[K, V]
	i := 0
	for n := m.sg.Head(0).RawNext(0); n != nil && n.Kind() != node.Tail; n = n.RawNext(0) {
		if n.RawMarked(0) {
			continue
		}
		if i%m.stride == 0 {
			entries = append(entries, indexEntry[K, V]{key: n.Key(), n: n})
		}
		i++
	}
	m.indexes[zone].Store(&snapshot[K, V]{
		entries: entries,
		owner:   m.owners[zone],
		// Offset the snapshot's line-ID range far above node IDs so index
		// lines and data-node lines never alias in the cache simulator.
		id: 1<<40 | m.nextID.Add(1)<<20,
	})
}

// Rebuild forces an immediate index rebuild of every zone (tests/tooling).
func (m *Map[K, V]) Rebuild() {
	for z := range m.indexes {
		m.rebuild(z)
	}
}

// IndexLen returns the entry count of a zone's index as of its last
// maintenance pass.
func (m *Map[K, V]) IndexLen(zone int) int {
	if li := m.live[zone]; li != nil {
		return li.Len()
	}
	return len(m.indexes[zone].Load().entries)
}

// Algorithm returns which competitor this map is.
func (m *Map[K, V]) Algorithm() Algorithm { return m.cfg.Algorithm }

// Handle returns the per-thread handle; not safe for concurrent use.
func (m *Map[K, V]) Handle(thread int) *Handle[K, V] { return m.handles[thread] }

// Len counts present keys. O(n); tests and tooling.
func (m *Map[K, V]) Len() int { return m.sg.Len() }

// Keys returns the present keys in order. O(n); tests and tooling.
func (m *Map[K, V]) Keys() []K { return m.sg.BottomKeys() }

// Handle is one thread's view of a competitor map.
type Handle[K cmp.Ordered, V any] struct {
	m     *Map[K, V]
	zone  int
	owner node.Owner
	tr    *stats.ThreadRecorder
	res   *skipgraph.SearchResult[K, V]
}

// jump consults the thread's index snapshot and returns a live bottom-list
// node preceding key, or nil (head). Every binary-search probe is recorded as
// a read of the snapshot's memory, owned by the index's allocating zone.
func (h *Handle[K, V]) jump(key K) *node.Node[K, V] {
	if li := h.m.live[h.zone]; li != nil {
		// Live tower descent (no-hotspot, NUMASK): node-granular hops, each
		// recorded against the index owner's memory; the lookup re-validates
		// that the jump target is observed unmarked.
		return li.lookup(key, h.tr)
	}
	snap := h.m.indexes[h.zone].Load()
	entries := snap.entries
	if len(entries) == 0 {
		return nil
	}
	// Contiguous wheel (rotating): binary search; each probe touches a
	// distinct region of the array, one modelled cache line per 8 entries.
	var probed [64]int
	nProbes := 0
	idx := sort.Search(len(entries), func(i int) bool {
		if nProbes < len(probed) {
			probed[nProbes] = i
		}
		nProbes++
		return !(entries[i].key < key)
	})
	if nProbes > len(probed) {
		nProbes = len(probed)
	}
	for p := 0; p < nProbes; p++ {
		h.tr.Read(snap.owner.Thread, snap.owner.Node, snap.id+uint64(probed[p]/8))
	}
	// idx is the first entry >= key; the floor is idx-1. Walk back while the
	// sampled node has been marked since the snapshot was taken: a marked
	// node's frozen references may bypass newer inserts, so only starts
	// observed unmarked within this operation are safe.
	for i := idx - 1; i >= 0; i-- {
		n := entries[i].n
		if !n.Marked(0, h.tr) {
			return n
		}
	}
	return nil
}

// Insert adds key → value, returning false if the key is present. The jump
// start is recomputed on every retry: a start that was observed unmarked at
// lookup time can be removed concurrently, and its frozen level-0 reference
// would then yield the same un-CAS-able predecessor forever.
func (h *Handle[K, V]) Insert(key K, value V) bool {
	defer h.tr.Op()
	sg := h.m.sg
	var toInsert *node.Node[K, V]
	for {
		if sg.LazyRelinkSearch(key, h.jump(key), 0, h.res, h.tr) {
			return false
		}
		if toInsert == nil {
			toInsert = sg.NewNode(key, value, 0, h.owner, 0)
		}
		if sg.LinkLevel0(h.res, toInsert, h.tr) {
			toInsert.MarkInserted()
			return true
		}
	}
}

// Remove deletes key, returning false if it was not present.
func (h *Handle[K, V]) Remove(key K) bool {
	defer h.tr.Op()
	sg := h.m.sg
	for {
		found, ok := sg.RetireSearch(key, h.jump(key), 0, h.tr)
		if !ok {
			return false
		}
		done, removed := sg.RemoveHelper(found, h.tr)
		if done {
			return removed
		}
	}
}

// Contains reports whether key is present.
func (h *Handle[K, V]) Contains(key K) bool {
	_, ok := h.Get(key)
	return ok
}

// Get returns the value stored under key.
func (h *Handle[K, V]) Get(key K) (V, bool) {
	defer h.tr.Op()
	var zero V
	found, ok := h.m.sg.RetireSearch(key, h.jump(key), 0, h.tr)
	if !ok || found.Marked(0, h.tr) {
		return zero, false
	}
	return found.Value(), true
}
