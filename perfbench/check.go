package main

import (
	"fmt"
	"math/bits"
	"os"
	"sync/atomic"
)

// valueOf is the value every key is stored with, so any read can be checked
// without consulting a model.
func valueOf(k int64) int64 {
	x := uint64(k)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	x ^= x >> 29
	return int64(x)
}

// keySet is a bitset over the key range [0, n). Each client writes only its
// own set; sets are merged after the clients stop.
type keySet []uint64

func newKeySet(n int64) keySet { return make(keySet, (n+63)/64) }

func (s keySet) has(k int64) bool { return s[k>>6]&(1<<(uint(k)&63)) != 0 }
func (s keySet) add(k int64)      { s[k>>6] |= 1 << (uint(k) & 63) }
func (s keySet) del(k int64)      { s[k>>6] &^= 1 << (uint(k) & 63) }

func (s keySet) len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

func (s keySet) clone() keySet { return append(keySet(nil), s...) }

// union returns a new set holding every key of s and of each other set.
func (s keySet) union(others ...keySet) keySet {
	u := s.clone()
	for _, o := range others {
		for i, w := range o {
			u[i] |= w
		}
	}
	return u
}

// filter returns the keys of s for which keep holds.
func (s keySet) filter(n int64, keep func(int64) bool) keySet {
	out := newKeySet(n)
	for k := int64(0); k < n; k++ {
		if s.has(k) && keep(k) {
			out.add(k)
		}
	}
	return out
}

// checker counts failed checks. The first few failures are described on
// standard error; every one is counted.
type checker struct {
	failed atomic.Int64
	logged atomic.Int64
}

const maxLoggedFailures = 20

func (c *checker) fail(format string, args ...any) {
	c.failed.Add(1)
	if c.logged.Add(1) <= maxLoggedFailures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// value checks one found value against valueOf.
func (c *checker) value(op string, k, v int64) {
	if v != valueOf(k) {
		c.fail("%s(%d) returned value %d, want %d", op, k, v, valueOf(k))
	}
}

// scan checks one RangeScan result: keys strictly ascending and inside
// [from, to], every value valueOf(key), every key of must in range present,
// and every key either in must or allowed by mayAppear.
func (c *checker) scan(from, to int64, got []int64, vals []int64, must keySet, mayAppear func(int64) bool) {
	for i, k := range got {
		if k < from || k > to {
			c.fail("scan [%d,%d] returned key %d out of range", from, to, k)
		}
		if i > 0 && k <= got[i-1] {
			c.fail("scan [%d,%d] returned key %d after %d", from, to, k, got[i-1])
		}
		c.value("scan", k, vals[i])
		if !must.has(k) && !mayAppear(k) {
			c.fail("scan [%d,%d] returned key %d that was never written", from, to, k)
		}
	}
	j := 0
	hi := to
	if n := int64(len(must)) * 64; hi >= n {
		hi = n - 1
	}
	for k := max(from, 0); k <= hi; k++ {
		if !must.has(k) {
			continue
		}
		for j < len(got) && got[j] < k {
			j++
		}
		if j == len(got) || got[j] != k {
			c.fail("scan [%d,%d] missed never-removed key %d", from, to, k)
		}
	}
}

// equal checks a full ascending listing of a store against the expected set.
func (c *checker) equal(what string, got, vals []int64, want keySet) {
	n := int64(len(want)) * 64
	seen := 0
	for i, k := range got {
		if i > 0 && k <= got[i-1] {
			c.fail("%s: key %d listed after %d", what, k, got[i-1])
			continue
		}
		c.value(what, k, vals[i])
		if k < 0 || k >= n || !want.has(k) {
			c.fail("%s: holds key %d that the model does not", what, k)
			continue
		}
		seen++
	}
	if missing := want.len() - seen; missing > 0 {
		c.fail("%s: %d model keys missing (store lists %d, model holds %d)", what, missing, len(got), want.len())
	}
}
