// Package direct exposes the shared structures of internal/skipgraph as
// stand-alone concurrent maps, without the thread-local layer. These are the
// paper's isolation baselines:
//
//   - SkipList: "a concurrent skip list as in [Herlihy & Shavit], but
//     including our relink optimization" — one list per level, geometric node
//     heights, height = log2(key space), every search descending from the
//     head;
//   - SkipGraph: "a skip graph without layering" — the partitioned,
//     height-constrained skip graph, but with every search starting at the
//     thread's head sentinel instead of a local-structure jump;
//   - LinkedList: the MaxLevel-0 degenerate case, a lock-free linked list
//     with relink (a Harris-style list where chains of marked nodes are
//     unlinked with one CAS).
//
// All three use the non-lazy protocol with search-time cleanup, and the same
// arena-backed nodes as the layered variants: removed nodes' slots are never
// reused (non-lazy structures build no epoch domain).
package direct

import (
	"cmp"
	"fmt"
	"math/rand"

	"layeredsg/internal/membership"
	"layeredsg/internal/node"
	"layeredsg/internal/numa"
	"layeredsg/internal/skipgraph"
	"layeredsg/internal/stats"
)

// Shape selects which baseline a Map is.
type Shape int

const (
	// SkipList is a single-tower-per-level lock-free skip list with relink.
	SkipList Shape = iota + 1
	// SkipGraph is the partitioned skip graph operated without local layers.
	SkipGraph
	// LinkedList is the height-0 degenerate structure.
	LinkedList
)

// String implements fmt.Stringer using the paper's labels.
func (s Shape) String() string {
	switch s {
	case SkipList:
		return "skiplist"
	case SkipGraph:
		return "skipgraph_nolayer"
	case LinkedList:
		return "linkedlist"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// Config parameterizes a direct map.
type Config struct {
	// Machine supplies the thread count and topology; required.
	Machine *numa.Machine
	// Shape selects the baseline; required.
	Shape Shape
	// Height is the skip list height (the paper uses log2 of the key space).
	// Ignored for SkipGraph (which uses ceil(log2 T)-1) and LinkedList (0).
	Height int
	// Scheme selects membership vectors for SkipGraph; defaults to NUMAAware.
	Scheme membership.Scheme
	// Recorder, when non-nil, enables instrumentation.
	Recorder *stats.Recorder
	// Seed seeds the per-thread RNGs drawing node heights.
	Seed int64
}

// Map is a non-layered concurrent map baseline.
type Map[K cmp.Ordered, V any] struct {
	cfg     Config
	sg      *skipgraph.SG[K, V]
	vectors []uint32
	handles []*Handle[K, V]
}

// New builds a direct map.
func New[K cmp.Ordered, V any](cfg Config) (*Map[K, V], error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("direct: Config.Machine is required")
	}
	threads := cfg.Machine.Threads()
	if cfg.Scheme == 0 {
		cfg.Scheme = membership.NUMAAware
	}

	sgCfg := skipgraph.Config{CleanupDuringSearch: true, ArenaShards: cfg.Machine.Topology().Nodes()}
	vectors := make([]uint32, threads)
	switch cfg.Shape {
	case SkipList:
		if cfg.Height <= 0 {
			return nil, fmt.Errorf("direct: skip list requires a positive Height")
		}
		sgCfg.MaxLevel = cfg.Height
		sgCfg.Sparse = true
		sgCfg.SingleList = true
	case SkipGraph:
		sgCfg.MaxLevel = membership.MaxLevel(threads)
		var err error
		vectors, err = membership.Vectors(cfg.Machine, cfg.Scheme)
		if err != nil {
			return nil, err
		}
	case LinkedList:
		sgCfg.MaxLevel = 0
	default:
		return nil, fmt.Errorf("direct: unknown shape %d", int(cfg.Shape))
	}

	sg, err := skipgraph.New[K, V](sgCfg)
	if err != nil {
		return nil, err
	}
	m := &Map[K, V]{cfg: cfg, sg: sg, vectors: vectors, handles: make([]*Handle[K, V], threads)}
	for t := 0; t < threads; t++ {
		var tr *stats.ThreadRecorder
		if cfg.Recorder != nil {
			tr = cfg.Recorder.ThreadRecorder(t)
		}
		m.handles[t] = &Handle[K, V]{
			m:      m,
			vector: vectors[t],
			owner:  node.Owner{Thread: int32(t), Node: int32(cfg.Machine.NodeOf(t))},
			tr:     tr,
			res:    sg.NewSearchResult(),
			rng:    rand.New(rand.NewSource(cfg.Seed + int64(t)*0x5851F42D4C957F2D + 1)),
		}
	}
	return m, nil
}

// Shape returns the baseline shape.
func (m *Map[K, V]) Shape() Shape { return m.cfg.Shape }

// Handle returns the per-thread handle. Handles are not safe for concurrent
// use.
func (m *Map[K, V]) Handle(thread int) *Handle[K, V] { return m.handles[thread] }

// Len counts logically present keys. O(n); tests and tooling.
func (m *Map[K, V]) Len() int { return m.sg.Len() }

// Keys returns the present keys in order. O(n); tests and tooling.
func (m *Map[K, V]) Keys() []K { return m.sg.BottomKeys() }

// SharedStructure exposes the underlying structure for inspection.
func (m *Map[K, V]) SharedStructure() *skipgraph.SG[K, V] { return m.sg }

// Handle is one thread's view of the direct map.
type Handle[K cmp.Ordered, V any] struct {
	m      *Map[K, V]
	vector uint32
	owner  node.Owner
	tr     *stats.ThreadRecorder
	res    *skipgraph.SearchResult[K, V]
	rng    *rand.Rand
}

// Insert adds key → value, returning false if the key is present. Every
// search descends from the head sentinel — the cost layering removes.
func (h *Handle[K, V]) Insert(key K, value V) bool {
	defer h.tr.Op()
	sg := h.m.sg
	var toInsert *node.Node[K, V]
	for {
		if sg.LazyRelinkSearch(key, nil, h.vector, h.res, h.tr) {
			return false // Unmarked node with the key: duplicate.
		}
		if toInsert == nil {
			toInsert = sg.NewNode(key, value, h.vector, h.owner, sg.RandomTopLevel(h.rng))
		}
		if sg.LinkLevel0(h.res, toInsert, h.tr) {
			break
		}
	}
	if toInsert.TopLevel() == 0 {
		toInsert.MarkInserted()
	} else {
		sg.FinishInsert(toInsert, nil, nil, h.res, h.tr)
	}
	return true
}

// Remove deletes key, returning false if it was not present.
func (h *Handle[K, V]) Remove(key K) bool {
	sg := h.m.sg
	defer h.tr.Op()
	for {
		found, ok := sg.RetireSearch(key, nil, h.vector, h.tr)
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
	found, ok := h.m.sg.RetireSearch(key, nil, h.vector, h.tr)
	if !ok {
		return zero, false
	}
	if found.Marked(0, h.tr) {
		return zero, false
	}
	return found.Value(), true
}
