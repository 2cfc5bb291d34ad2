package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// tinyOptions runs a workload on a store 64 times smaller than the real one
// for a fraction of a second.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     7,
		seconds:  300 * time.Millisecond,
		trace:    trace,
		dataDir:  t.TempDir(),
		shift:    6,
		rounds:   2,
		budget:   60 * time.Second,
	}
}

func runTiny(t *testing.T, opt options) (*bench, error) {
	t.Helper()
	b, err := newBench(opt)
	if err != nil {
		t.Fatal(err)
	}
	return b, b.run()
}

// declared reads the metric names BENCHMARK.json promises for a run.
func declared(t *testing.T, trace bool) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, name := range []string{"point-read", "churn-durable", "scan-restart"} {
		for _, trace := range []bool{false, true} {
			b, err := runTiny(t, tinyOptions(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := b.result()
			if !res.Correct || res.Failed != 0 || res.Attempted < 10 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			var got []string
			for m := range res.Metrics {
				got = append(got, m)
			}
			sort.Strings(got)
			want := declared(t, trace)
			if len(got) != len(want) {
				t.Fatalf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", name, trace, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", name, trace, got, want)
				}
			}
			if !trace {
				for m, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
					}
				}
			}
		}
	}
}

// corruptGet returns a wrong value from the 50th Get that finds its key,
// counting across every store of the run.
type corruptGet struct {
	store
	found *atomic.Int64
}

func (s corruptGet) Get(k int64) (int64, bool) {
	v, ok := s.store.Get(k)
	if ok && s.found.Add(1) == 50 {
		v++
	}
	return v, ok
}

func TestCheckerCatchesCorruptGet(t *testing.T) {
	opt := tinyOptions(t, "point-read", false)
	var found atomic.Int64
	opt.wrap = func(s store) store { return corruptGet{s, &found} }
	b, err := runTiny(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.result(); got.Correct || got.Failed != 1 {
		t.Fatalf("corrupt Get: correct=%v failed=%d, want one failure", got.Correct, got.Failed)
	}
}

// dropFirst hides the first key of every RangeScan.
type dropFirst struct{ store }

func (s dropFirst) RangeScan(from, to int64, fn func(k, v int64) bool) {
	first := true
	s.store.RangeScan(from, to, func(k, v int64) bool {
		if first {
			first = false
			return true
		}
		return fn(k, v)
	})
}

func TestCheckerCatchesDroppedRecoveredKey(t *testing.T) {
	opt := tinyOptions(t, "churn-durable", false)
	opened := 0
	opt.wrap = func(s store) store {
		// Each of the two rounds opens a store; the third store is recovered.
		if opened++; opened == 3 {
			return dropFirst{s}
		}
		return s
	}
	b, err := runTiny(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.result(); got.Correct || got.Failed != 1 {
		t.Fatalf("dropped recovered key: correct=%v failed=%d, want one failure", got.Correct, got.Failed)
	}
}

// hungClose never returns from Close until released.
type hungClose struct {
	store
	release chan struct{}
}

func (s hungClose) Close() {
	<-s.release
	s.store.Close()
}

func TestWatchdogFailsHungDrain(t *testing.T) {
	opt := tinyOptions(t, "churn-durable", false)
	opt.budget = 3 * time.Second
	release := make(chan struct{})
	defer close(release)
	opt.wrap = func(s store) store { return hungClose{s, release} }
	b, err := runTiny(t, opt)
	if !errors.Is(err, errWatchdog) {
		t.Fatalf("run returned %v, want the watchdog error", err)
	}
	if got := b.result(); got.Correct || got.Failed != 1 {
		t.Fatalf("hung drain: correct=%v failed=%d, want one failure", got.Correct, got.Failed)
	}
}

// inProcess runs each part of a split run in this process, as execPart
// would in a child, with part faults injected by wrap.
func inProcess(t *testing.T, opt options, wrap func(part int) func(store) store) spawnFunc {
	return func(ctx context.Context, part int, budget time.Duration) ([]byte, error) {
		o := opt
		o.part, o.budget = part, budget
		o.dataDir = filepath.Join(opt.dataDir, fmt.Sprint(part))
		o.wrap = wrap(part)
		b, err := newBench(o)
		if err != nil {
			t.Fatal(err)
		}
		return formatPart(b.record(b.run())), nil
	}
}

func TestSplitRunMergesParts(t *testing.T) {
	opt := tinyOptions(t, "churn-durable", false)
	opt.rounds, opt.parts = 1, 3
	b, err := newBench(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.runParts(inProcess(t, opt, func(int) func(store) store { return nil })); err != nil {
		t.Fatal(err)
	}
	res := b.result()
	if !res.Correct || len(b.rounds) != 3 || b.recoverS <= 0 || b.loadStats.WALReplayed == 0 {
		t.Fatalf("split run: correct=%v rounds=%d recover_s=%v replayed=%d, want 3 rounds and the last part's recovery",
			res.Correct, len(b.rounds), b.recoverS, b.loadStats.WALReplayed)
	}
	for _, m := range declared(t, false) {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("split run: %s = %v, want > 0", m, res.Metrics[m].Value)
		}
	}
}

func TestSplitRunCountsPartFailures(t *testing.T) {
	opt := tinyOptions(t, "point-read", false)
	opt.rounds, opt.parts = 1, 2
	b, err := newBench(opt)
	if err != nil {
		t.Fatal(err)
	}
	var found atomic.Int64
	corruptSecond := func(part int) func(store) store {
		if part != 1 {
			return nil
		}
		return func(s store) store { return corruptGet{s, &found} }
	}
	if err := b.runParts(inProcess(t, opt, corruptSecond)); err != nil {
		t.Fatal(err)
	}
	if got := b.result(); got.Correct || got.Failed != 1 || len(b.rounds) != 2 {
		t.Fatalf("corrupt Get in part 1: correct=%v failed=%d rounds=%d, want one failure over 2 rounds", got.Correct, got.Failed, len(b.rounds))
	}
}

func TestSplitRunFailsSilentPart(t *testing.T) {
	opt := tinyOptions(t, "churn-durable", false)
	opt.parts = 2
	b, err := newBench(opt)
	if err != nil {
		t.Fatal(err)
	}
	silent := func(context.Context, int, time.Duration) ([]byte, error) {
		return []byte("no record\n"), errors.New("exit status 2")
	}
	if err := b.runParts(silent); err == nil {
		t.Fatal("runParts accepted a part that printed no record")
	}
	if got := b.result(); got.Correct || got.Failed != 1 {
		t.Fatalf("silent part: correct=%v failed=%d, want one failure", got.Correct, got.Failed)
	}
}
