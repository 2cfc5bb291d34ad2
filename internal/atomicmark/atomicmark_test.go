package atomicmark

import (
	"sync"
	"testing"
	"testing/quick"
)

// TestZeroValue checks every accessor of a zero PackedRef, not only Load:
// nil successor, unmarked, invalid.
func TestZeroValue(t *testing.T) {
	var r PackedRef
	if r.Ref() != 0 || r.Index() != 0 {
		t.Fatalf("zero Ref() = %#x, Index() = %d, want 0", r.Ref(), r.Index())
	}
	if r.Marked() {
		t.Fatal("zero Marked()")
	}
	if r.Valid() {
		t.Fatal("zero Valid()")
	}
	if m, v := r.MarkValid(); m || v {
		t.Fatalf("zero MarkValid() = %v,%v", m, v)
	}
}

func TestInitAndLoad(t *testing.T) {
	var r PackedRef
	a := MakeRef(1, 2)
	r.Init(a, false, true)
	if got := r.Load(); got.Ref != a || got.Marked || !got.Valid {
		t.Fatalf("Load = %+v", got)
	}
	if r.Ref() != a || r.Index() != 1 || r.Marked() || !r.Valid() {
		t.Fatalf("accessors = ref %#x index %d marked %v valid %v", r.Ref(), r.Index(), r.Marked(), r.Valid())
	}
	m, v := r.MarkValid()
	if m || !v {
		t.Fatalf("MarkValid = %v,%v", m, v)
	}
}

// TestCASNext checks that a successor swing keeps the valid bit as it finds
// it, and that a failed swing on a marked reference leaves the successor
// where it was.
func TestCASNext(t *testing.T) {
	var r PackedRef
	a, b, c := MakeRef(1, 1), MakeRef(2, 1), MakeRef(3, 1)
	r.Init(a, false, false)
	if !r.CASNext(a, b) {
		t.Fatal("CASNext a→b failed")
	}
	if got := r.Load(); got.Ref != b || got.Marked || got.Valid {
		t.Fatalf("CASNext disturbed the bits: %+v", got)
	}
	if r.CASNext(a, c) {
		t.Fatal("CASNext with stale expected succeeded")
	}
	// Marked references are immutable.
	if !r.CASMark(false, true) {
		t.Fatal("CASMark failed")
	}
	if r.CASNext(b, c) {
		t.Fatal("CASNext on marked reference succeeded")
	}
	if r.Ref() != b {
		t.Fatal("marked reference successor changed")
	}
}

func TestCASMarkPreservesPointerAndValid(t *testing.T) {
	var r PackedRef
	a := MakeRef(1, 5)
	r.Init(a, false, true)
	if !r.CASMark(false, true) {
		t.Fatal("CASMark false→true failed")
	}
	snap := r.Load()
	if snap.Ref != a || !snap.Marked || !snap.Valid {
		t.Fatalf("after mark: %+v", snap)
	}
	if r.CASMark(false, true) {
		t.Fatal("CASMark with wrong expectation succeeded")
	}
}

func TestCASValid(t *testing.T) {
	var r PackedRef
	a := MakeRef(1, 5)
	r.Init(a, false, true)
	if !r.CASValid(true, false) {
		t.Fatal("CASValid true→false failed")
	}
	if r.Valid() {
		t.Fatal("still valid")
	}
	if r.CASValid(true, false) {
		t.Fatal("CASValid with wrong expectation succeeded")
	}
	snap := r.Load()
	if snap.Ref != a || snap.Marked {
		t.Fatalf("CASValid disturbed other fields: %+v", snap)
	}
}

// TestCASMarkValid starts from the unmarked-invalid state a lazy remove
// leaves behind: a transition expecting the wrong valid bit fails, revival
// succeeds, and retirement only goes through with the exact expectation.
func TestCASMarkValid(t *testing.T) {
	var r PackedRef
	a := MakeRef(1, 4)
	r.Init(a, false, false) // unmarked, invalid: ready for revival
	if r.CASMarkValid(false, true, false, false) {
		t.Fatal("CASMarkValid with wrong valid expectation succeeded")
	}
	if !r.CASMarkValid(false, false, false, true) {
		t.Fatal("revival CAS failed")
	}
	m, v := r.MarkValid()
	if m || !v {
		t.Fatalf("after revival: %v,%v", m, v)
	}
	// Retire: (false,*)→(true,*) only via exact expectation.
	if r.CASMarkValid(false, false, true, false) {
		t.Fatal("retire of a valid reference succeeded")
	}
	if !r.CASMarkValid(false, true, false, false) {
		t.Fatal("invalidate failed")
	}
	if !r.CASMarkValid(false, false, true, false) {
		t.Fatal("retire failed")
	}
	if got := r.Load(); !got.Marked || got.Valid || got.Ref != a {
		t.Fatalf("after retire: %+v", got)
	}
}

// TestCASSnapshot checks that the full-triple CAS fails when any single
// component of the expectation is off — index, generation, mark or valid —
// and succeeds on the exact state.
func TestCASSnapshot(t *testing.T) {
	cur := PackedSnapshot{Ref: MakeRef(4, 6), Marked: false, Valid: true}
	want := PackedSnapshot{Ref: MakeRef(8, 2), Marked: false, Valid: true}
	for name, exp := range map[string]PackedSnapshot{
		"index":      {Ref: MakeRef(5, 6), Marked: false, Valid: true},
		"generation": {Ref: MakeRef(4, 5), Marked: false, Valid: true},
		"marked":     {Ref: MakeRef(4, 6), Marked: true, Valid: true},
		"valid":      {Ref: MakeRef(4, 6), Marked: false, Valid: false},
	} {
		var r PackedRef
		r.Init(cur.Ref, cur.Marked, cur.Valid)
		if r.CASSnapshot(exp, want) {
			t.Fatalf("CASSnapshot with a wrong %s succeeded", name)
		}
		if got := r.Load(); got != cur {
			t.Fatalf("failed CASSnapshot (%s) changed the state to %+v", name, got)
		}
	}
	var r PackedRef
	r.Init(cur.Ref, cur.Marked, cur.Valid)
	if !r.CASSnapshot(cur, want) {
		t.Fatal("CASSnapshot with the exact state failed")
	}
	if got := r.Load(); got != want {
		t.Fatalf("Load = %+v want %+v", got, want)
	}
}

// TestConcurrentMarkOnce checks that among many concurrent CASMark attempts
// exactly one succeeds — the linearization guarantee every protocol step
// relies on.
func TestConcurrentMarkOnce(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		var r PackedRef
		r.Init(MakeRef(1, 0), false, true)
		const n = 8
		results := make([]bool, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = r.CASMark(false, true)
			}(i)
		}
		wg.Wait()
		wins := 0
		for _, ok := range results {
			if ok {
				wins++
			}
		}
		if wins != 1 {
			t.Fatalf("iter %d: %d winners, want exactly 1", iter, wins)
		}
	}
}

// TestConcurrentReviveRetireExclusive checks that revival (invalid→valid)
// and retirement (unmarked-invalid→marked-invalid) of the same reference are
// mutually exclusive: exactly one of the two racing transitions wins.
func TestConcurrentReviveRetireExclusive(t *testing.T) {
	for iter := 0; iter < 300; iter++ {
		var r PackedRef
		r.Init(MakeRef(1, 0), false, false)
		var revived, retired bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			revived = r.CASMarkValid(false, false, false, true)
		}()
		go func() {
			defer wg.Done()
			retired = r.CASMarkValid(false, false, true, false)
		}()
		wg.Wait()
		if revived == retired {
			t.Fatalf("iter %d: revived=%v retired=%v, want exactly one", iter, revived, retired)
		}
	}
}

// TestQuickTransitions property-tests that arbitrary sequences of CAS
// operations always leave the reference in the state the last winner
// installed — no torn words, and the generation tag travels with the index.
func TestQuickTransitions(t *testing.T) {
	refs := []uint64{MakeRef(1, 0), MakeRef(2, 7), MakeRef(3, PackedGenMask)}
	f := func(ops []uint8) bool {
		var r PackedRef
		r.Init(refs[0], false, true)
		cur := PackedSnapshot{Ref: refs[0], Marked: false, Valid: true}
		for _, op := range ops {
			switch op % 4 {
			case 0:
				next := refs[int(op/4)%len(refs)]
				if r.CASNext(cur.Ref, next) {
					if cur.Marked {
						return false // CASNext must fail on marked refs
					}
					cur.Ref = next
				}
			case 1:
				if r.CASMark(cur.Marked, !cur.Marked) {
					cur.Marked = !cur.Marked
				}
			case 2:
				if r.CASValid(cur.Valid, !cur.Valid) {
					cur.Valid = !cur.Valid
				}
			case 3:
				if r.CASMarkValid(cur.Marked, cur.Valid, !cur.Marked, !cur.Valid) {
					cur.Marked = !cur.Marked
					cur.Valid = !cur.Valid
				}
			}
			if got := r.Load(); got != cur {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
