package main

import (
	"math"
	"sort"
)

// reservoirCap bounds the latency samples one client keeps per call class;
// past it, reservoir sampling keeps a uniform sample of every call timed.
const reservoirCap = 1 << 18

// reservoir is a fixed-capacity uniform sample of nanosecond durations. It is
// allocated before the heap baseline is taken, so it never counts as store
// memory.
type reservoir struct {
	n   uint64
	v   []uint32
	rng uint64
}

func newReservoir(seed uint64) *reservoir {
	return &reservoir{v: make([]uint32, 0, reservoirCap), rng: seed | 1}
}

func (r *reservoir) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	r.n++
	if len(r.v) < cap(r.v) {
		r.v = append(r.v, uint32(ns))
		return
	}
	// xorshift64: cheap enough to run on every timed call.
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % r.n; j < uint64(len(r.v)) {
		r.v[j] = uint32(ns)
	}
}

func (r *reservoir) reset() { r.n, r.v = 0, r.v[:0] }

// quantiles merges reservoirs, weighting each sample by the number of calls
// it stands for, and returns the requested quantiles in nanoseconds plus the
// total number of calls timed. With no calls every quantile is 0.
func quantiles(rs []*reservoir, qs ...float64) ([]float64, uint64) {
	type sample struct {
		ns uint32
		w  float64
	}
	var all []sample
	var total uint64
	var weight float64
	for _, r := range rs {
		if r == nil || len(r.v) == 0 {
			continue
		}
		total += r.n
		w := float64(r.n) / float64(len(r.v))
		for _, ns := range r.v {
			all = append(all, sample{ns, w})
		}
		weight += float64(r.n)
	}
	out := make([]float64, len(qs))
	if len(all) == 0 {
		return out, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ns < all[j].ns })
	for i, q := range qs {
		target, acc := q*weight, 0.0
		out[i] = float64(all[len(all)-1].ns)
		for _, s := range all {
			acc += s.w
			if acc >= target {
				out[i] = float64(s.ns)
				break
			}
		}
	}
	return out, total
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
