package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Spans are recorded by the benchmark's own code around each call into a
// layer of the Store; nothing inside the program is instrumented beyond the
// counters its Tracer already keeps.
type spanName uint8

const (
	spStoreGet spanName = iota
	spStoreInsert
	spStoreRemove
	spCoreGet
	spCoreInsert
	spCoreRemove
	spBarrier
	spStoreScan
	spSnapshot
	spWalk
	spSnapshotClose
	spDump
	spLoad
	spDrain
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"store.get", "store.insert", "store.remove",
	"core.get", "core.insert", "core.remove",
	"persist.barrier",
	"store.rangescan", "epoch.snapshot", "snapshot.walk", "epoch.snapshot_close",
	"persist.dump", "persist.load", "maintain.drain",
}

// span is one timed call. Spans of one client call share a root: children
// name it as Parent. Times are nanoseconds since the run started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Self-time samples kept per client, one reservoir each.
const (
	selfLease = iota // store.<op> minus its core.<op> child
	selfCoreGet
	selfCoreWrite
	selfSnapshot
	selfSnapshotClose
	selfBarrier
	nSelf
)

// spanCap bounds the spans one log keeps in memory; spanEvery thins them so
// the kept spans cover the whole run rather than its first moments. Self
// times are taken from every traced call regardless.
const (
	spanCap   = 1 << 13
	spanEvery = 64
)

// spanLog is one goroutine's span store. Logs are written only by their
// owner and read after the owner stops.
type spanLog struct {
	idBase uint64
	seq    uint64
	calls  uint64
	spans  []span
	self   [nSelf]*reservoir
	// Scan walk totals for snapshot.walk_ns_per_key / keys_per_scan.
	walkNs, walkKeys, scans int64
}

func newSpanLog(owner int, seed uint64) *spanLog {
	l := &spanLog{idBase: uint64(owner+1) << 48, spans: make([]span, 0, spanCap)}
	for i := range l.self {
		l.self[i] = newReservoir(seed + uint64(i))
	}
	return l
}

func (l *spanLog) id() uint64 {
	l.seq++
	return l.idBase | l.seq
}

// keep reports whether the current call's spans are stored.
func (l *spanLog) keep() bool {
	l.calls++
	return len(l.spans) < cap(l.spans) && l.calls%spanEvery == 1
}

// record stores one span without children and returns its ID.
func (l *spanLog) record(name spanName, parent uint64, start, end int64) uint64 {
	id := l.id()
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, span{ID: id, Parent: parent, Name: spanNames[name], Start: start, End: end})
	}
	return id
}

// pointCall records store.<op> [t0,t3] with its core.<op> child [t1,t2].
func (l *spanLog) pointCall(outer, inner spanName, t0, t1, t2, t3 int64) {
	l.self[selfLease].add((t3 - t0) - (t2 - t1))
	if inner == spCoreGet {
		l.self[selfCoreGet].add(t2 - t1)
	} else {
		l.self[selfCoreWrite].add(t2 - t1)
	}
	if l.keep() {
		root := l.record(outer, 0, t0, t3)
		l.record(inner, root, t1, t2)
	}
}

// scanCall records store.rangescan [t0,t4] with its snapshot acquire
// [t0,t1], walk [t1,t2] and snapshot close [t2,t3] children.
func (l *spanLog) scanCall(t0, t1, t2, t3, t4 int64, keys int) {
	l.self[selfSnapshot].add(t1 - t0)
	l.self[selfSnapshotClose].add(t3 - t2)
	l.walkNs += t2 - t1
	l.walkKeys += int64(keys)
	l.scans++
	if l.keep() {
		root := l.record(spStoreScan, 0, t0, t4)
		l.record(spSnapshot, root, t0, t1)
		l.record(spWalk, root, t1, t2)
		l.record(spSnapshotClose, root, t2, t3)
	}
}

func (l *spanLog) barrierCall(t0, t1 int64) {
	l.self[selfBarrier].add(t1 - t0)
	if l.keep() {
		l.record(spBarrier, 0, t0, t1)
	}
}

// lifecycleSpans is the span store for the run's single-threaded steps
// (dump, load, drain), which may run on a watchdog goroutine.
type lifecycleSpans struct {
	mu  sync.Mutex
	log *spanLog
}

func (s *lifecycleSpans) record(name spanName, start, end int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.record(name, 0, start, end)
}

// writeSpans writes every kept span as one JSON object per line.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
