package node

import (
	"sync"
	"testing"
)

func TestArenaIndexZeroIsNil(t *testing.T) {
	a := NewArena[int, int](2, 4)
	if a.At(0) != nil {
		t.Fatal("index 0 did not resolve to nil")
	}
	// The first allocation must not receive index 0 (shard 0's slot 0 is
	// burned at construction).
	n := a.NewData(1, 1, 0, 0, Owner{}, 1, 0)
	if n.ArenaIndex() == 0 {
		t.Fatal("allocated node received the reserved nil index")
	}
	if a.At(n.ArenaIndex()) != n {
		t.Fatal("At did not round-trip the first allocation")
	}
}

func TestArenaRoundTripAcrossChunks(t *testing.T) {
	a := NewArena[int, int](1, 4)
	// Allocate past a chunk boundary so At must walk the grown chunk table.
	nodes := make([]*Node[int, int], 3*arenaChunkSlots/2)
	for i := range nodes {
		nodes[i] = a.NewData(i, i, 1, 0, Owner{}, uint64(i+1), 0)
	}
	for i, n := range nodes {
		if got := a.At(n.ArenaIndex()); got != n {
			t.Fatalf("node %d: At(%d) = %p want %p", i, n.ArenaIndex(), got, n)
		}
		if n.Key() != i {
			t.Fatalf("node %d: key %d", i, n.Key())
		}
	}
}

func TestArenaShardRouting(t *testing.T) {
	a := NewArena[int, int](2, 4)
	n0 := a.NewData(1, 1, 0, 0, Owner{Thread: 0, Node: 0}, 1, 0)
	n1 := a.NewData(2, 2, 0, 0, Owner{Thread: 4, Node: 1}, 2, 0)
	if got := n0.ArenaIndex() >> arenaPosBits; got != 0 {
		t.Fatalf("node-0 owner allocated on shard %d", got)
	}
	if got := n1.ArenaIndex() >> arenaPosBits; got != 1 {
		t.Fatalf("node-1 owner allocated on shard %d", got)
	}
	// Owners beyond the shard count clamp to shard 0 instead of panicking.
	n2 := a.NewData(3, 3, 0, 0, Owner{Thread: 9, Node: 7}, 3, 0)
	if got := n2.ArenaIndex() >> arenaPosBits; got != 0 {
		t.Fatalf("out-of-range owner allocated on shard %d", got)
	}
}

func TestArenaConcurrentAlloc(t *testing.T) {
	a := NewArena[int, int](2, 4)
	const goroutines, each = 8, 2000
	var wg sync.WaitGroup
	out := make([][]*Node[int, int], goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := Owner{Thread: int32(g), Node: int32(g % 2)}
			for i := 0; i < each; i++ {
				out[g] = append(out[g], a.NewData(i, i, 2, 0, own, uint64(g*each+i+1), 0))
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[uint32]bool, goroutines*each)
	for g := range out {
		for _, n := range out[g] {
			idx := n.ArenaIndex()
			if idx == 0 || seen[idx] {
				t.Fatalf("index %d duplicated or zero", idx)
			}
			seen[idx] = true
			if a.At(idx) != n {
				t.Fatalf("At(%d) does not round-trip", idx)
			}
		}
	}
	st := a.Stats()
	// +1 for the burned nil slot on shard 0.
	if st.SlotsUsed != goroutines*each+1 {
		t.Fatalf("SlotsUsed = %d want %d", st.SlotsUsed, goroutines*each+1)
	}
	if st.SlotsReserved < st.SlotsUsed || st.Chunks == 0 {
		t.Fatalf("stats inconsistent: %+v", st)
	}
}

func TestArenaDataNodeInitialState(t *testing.T) {
	a := NewArena[int, string](1, 4)
	n := a.NewData(7, "seven", 3, 0b101, Owner{Thread: 1, Node: 0}, 42, 1000)
	if n.Key() != 7 || n.Value() != "seven" || !n.IsData() || n.TopLevel() != 3 {
		t.Fatal("payload wrong")
	}
	for level := 0; level <= 3; level++ {
		snap := n.RawLoad(level)
		if snap.Next != nil || snap.Marked || !snap.Valid {
			t.Fatalf("level %d initial state %+v", level, snap)
		}
	}
}

func TestArenaSentinels(t *testing.T) {
	a := NewArena[int, int](1, 4)
	tail := a.NewTail(3, 1)
	head := a.NewHead(3, 0b1, tail, 2)
	if head.RawNext(3) != tail {
		t.Fatal("head not pointing at tail")
	}
	for level := 0; level <= 3; level++ {
		if tail.RawMarked(level) {
			t.Fatalf("tail level %d marked", level)
		}
	}
}

func TestArenaLinkOpsThroughNodeAPI(t *testing.T) {
	a := NewArena[int, int](1, 4)
	tail := a.NewTail(1, 1)
	head := a.NewHead(1, 0, tail, 2)
	n := a.NewData(5, 5, 1, 0, Owner{}, 3, 0)

	n.RawStore(1, tail, false, true)
	if !head.RawCASNext(1, tail, n) {
		t.Fatal("link CAS failed")
	}
	if head.RawNext(1) != n || n.RawNext(1) != tail {
		t.Fatal("link did not take")
	}
	// Mark n's reference and relink head past it with a full-snapshot CAS.
	if !n.CASMark(1, false, true, nil) {
		t.Fatal("mark failed")
	}
	exp := head.RawLoad(1)
	if exp.Next != n {
		t.Fatalf("head snapshot %+v", exp)
	}
	want := exp
	want.Next = tail
	if !head.CASSnapshot(1, exp, want, nil) {
		t.Fatal("relink CASSnapshot failed")
	}
	if head.RawNext(1) != tail {
		t.Fatal("relink did not take")
	}
}

func TestArenaRejectsTallNodes(t *testing.T) {
	a := NewArena[int, int](1, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("NewData at the arena width did not panic")
		}
	}()
	a.NewData(1, 1, 4, 0, Owner{}, 1, 0)
}

// TestArenaTallNodes round-trips nodes of every top level up to 17 (the
// skip-list baseline's height at a 2^17-key space) through an arena of width
// 18, so levels 8..17 live in the chunks' overflow slabs: every accessor must
// reach the right word, neighbouring slots' overflow words must not alias,
// and a freed slot's overflow words must come back reset on reuse.
func TestArenaTallNodes(t *testing.T) {
	const width = 18
	a := NewArena[int, int](2, width)
	tail := a.NewTail(width-1, 1)
	nodes := make([]*Node[int, int], 0, 2*width)
	for i := 0; i < 2*width; i++ {
		top := i % width
		nodes = append(nodes, a.NewData(i, i, top, 0, Owner{Node: int32(i % 2)}, uint64(i+2), 0))
	}
	for _, n := range nodes {
		for l := 0; l <= n.TopLevel(); l++ {
			if s := n.RawLoad(l); s.Next != nil || s.Marked || !s.Valid {
				t.Fatalf("node %d level %d initial state %+v", n.Key(), l, s)
			}
		}
	}
	// Link every node's level l to the node l slots later (wrapping), so each
	// word holds a distinct successor, then read them all back.
	succ := func(i, l int) *Node[int, int] { return nodes[(i+l+1)%len(nodes)] }
	for i, n := range nodes {
		for l := 0; l <= n.TopLevel(); l++ {
			if !n.RawCASNext(l, nil, succ(i, l)) {
				t.Fatalf("node %d level %d: link CAS failed", i, l)
			}
		}
	}
	for i, n := range nodes {
		for l := 0; l <= n.TopLevel(); l++ {
			if got := n.RawNext(l); got != succ(i, l) {
				t.Fatalf("node %d level %d: next = %v want node %d", i, l, got.Key(), succ(i, l).Key())
			}
			if !n.CASMark(l, false, true, nil) || !n.RawMarked(l) {
				t.Fatalf("node %d level %d: mark did not take", i, l)
			}
			if n.CASNext(l, succ(i, l), tail, nil) {
				t.Fatalf("node %d level %d: CASNext moved a marked word", i, l)
			}
			exp := n.RawLoad(l)
			want := exp
			want.Next = tail
			if !n.CASSnapshot(l, exp, want, nil) || n.RawNext(l) != tail {
				t.Fatalf("node %d level %d: CASSnapshot did not take", i, l)
			}
			if !n.CASMarkValid(l, true, true, true, false, nil) {
				t.Fatalf("node %d level %d: CASMarkValid failed", i, l)
			}
			if m, v := n.MarkValid(l, nil); !m || v {
				t.Fatalf("node %d level %d: (marked, valid) = (%v, %v)", i, l, m, v)
			}
		}
	}
	// Free the tallest node and reuse its slot for a node of the same
	// height: the overflow words start nil, unmarked and valid again.
	tall := nodes[width-1]
	a.Free(tall)
	for l := 0; l < width; l++ {
		if s := tall.RawLoad(l); s.Next != nil || s.Marked || s.Valid {
			t.Fatalf("freed slot level %d not reset: %+v", l, s)
		}
	}
	again := a.NewData(99, 99, width-1, 0, Owner{Node: 1}, 100, 0)
	if again != tall {
		t.Fatal("allocation did not reuse the freed slot")
	}
	for l := 0; l < width; l++ {
		if s := again.RawLoad(l); s.Next != nil || s.Marked || !s.Valid {
			t.Fatalf("reused slot level %d state %+v", l, s)
		}
	}
	// Its slot neighbours on shard 1 kept their words.
	for _, n := range []*Node[int, int]{nodes[width-3], nodes[width+1]} {
		for l := 0; l <= n.TopLevel(); l++ {
			if n.RawNext(l) != tail {
				t.Fatalf("node %d level %d disturbed by a neighbour's reuse", n.Key(), l)
			}
		}
	}
}
