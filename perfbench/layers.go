package main

import "layeredsg"

// opCounts is one operation kind's Tracer counters.
type opCounts struct {
	count, visited, casRetries, relinkNodes uint64
	local, head                             uint64
}

func (o opCounts) plus(p opCounts) opCounts {
	return opCounts{o.count + p.count, o.visited + p.visited, o.casRetries + p.casRetries,
		o.relinkNodes + p.relinkNodes, o.local + p.local, o.head + p.head}
}

func (o opCounts) minus(p opCounts) opCounts {
	return opCounts{o.count - p.count, o.visited - p.visited, o.casRetries - p.casRetries,
		o.relinkNodes - p.relinkNodes, o.local - p.local, o.head - p.head}
}

// obsCounters are the Tracer's monotonic counters the per-layer metrics use.
type obsCounters struct {
	get, insert, remove opCounts

	restamps, reclaims, drops uint64
	slotsUsed, slotsReused    uint64

	indexLookups, indexHits uint64

	walFsyncs, walCommits, walWaitNs, walErrs uint64
}

func (c obsCounters) plus(d obsCounters) obsCounters {
	return obsCounters{
		get: c.get.plus(d.get), insert: c.insert.plus(d.insert), remove: c.remove.plus(d.remove),
		restamps: c.restamps + d.restamps, reclaims: c.reclaims + d.reclaims, drops: c.drops + d.drops,
		slotsUsed: c.slotsUsed + d.slotsUsed, slotsReused: c.slotsReused + d.slotsReused,
		indexLookups: c.indexLookups + d.indexLookups, indexHits: c.indexHits + d.indexHits,
		walFsyncs: c.walFsyncs + d.walFsyncs, walCommits: c.walCommits + d.walCommits,
		walWaitNs: c.walWaitNs + d.walWaitNs, walErrs: c.walErrs + d.walErrs,
	}
}

func (c obsCounters) minus(d obsCounters) obsCounters {
	return obsCounters{
		get: c.get.minus(d.get), insert: c.insert.minus(d.insert), remove: c.remove.minus(d.remove),
		restamps: c.restamps - d.restamps, reclaims: c.reclaims - d.reclaims, drops: c.drops - d.drops,
		slotsUsed: c.slotsUsed - d.slotsUsed, slotsReused: c.slotsReused - d.slotsReused,
		indexLookups: c.indexLookups - d.indexLookups, indexHits: c.indexHits - d.indexHits,
		walFsyncs: c.walFsyncs - d.walFsyncs, walCommits: c.walCommits - d.walCommits,
		walWaitNs: c.walWaitNs - d.walWaitNs, walErrs: c.walErrs - d.walErrs,
	}
}

// obsState is the part of a Tracer snapshot the per-layer metrics use:
// counters plus the gauges read at the end of a phase.
type obsState struct {
	obsCounters
	queueDepth, limboDepth, indexEntries int64
	slotsLive                            uint64
}

func readObs(t *layeredsg.Tracer) obsState {
	s := t.Snapshot()
	var o obsState
	for name, dst := range map[string]*opCounts{"get": &o.get, "insert": &o.insert, "remove": &o.remove} {
		op, ok := s.Ops[name]
		if !ok {
			continue
		}
		*dst = opCounts{
			count: op.Count, visited: op.Visited, casRetries: op.CASRetries, relinkNodes: op.RelinkNodes,
			local: op.Origins["local-hit"] + op.Origins["local-jump"], head: op.Origins["head"],
		}
	}
	if m := s.Maintenance; m != nil {
		o.restamps, o.reclaims, o.drops, o.queueDepth = m.Restamps, m.Reclaims, m.Drops, m.QueueDepth
	}
	if a := s.Arena; a != nil {
		o.slotsUsed, o.slotsReused, o.slotsLive = a.SlotsUsed, a.SlotsReused, a.SlotsLive()
	}
	if e := s.Epoch; e != nil {
		o.limboDepth = e.LimboDepth
	}
	if x := s.Index; x != nil {
		o.indexLookups = x.Hits + x.Misses + x.Stale + x.Fallbacks
		o.indexHits = x.Hits
		o.indexEntries = x.Entries
	}
	if p := s.Persist; p != nil {
		o.walFsyncs, o.walCommits, o.walWaitNs, o.walErrs = p.WALFsyncs, p.WALCommits, p.WALCommitWaitNs, p.WALErrs
	}
	return o
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// layerMetrics derives the per-layer metrics of a traced run. Counters are
// deltas summed over the rounds' measured phases; the Tracer counts only
// while a traced window is open, so they cover the traced half of the
// measured time. Gauges are read at the end of the last round's phase. A
// metric whose layer did no work on the workload reads 0.
func (b *bench) layerMetrics() []metric {
	var sum obsCounters
	var hits, acquires, blocks uint64
	for _, r := range b.rounds {
		sum = sum.plus(r.obs[1].obsCounters.minus(r.obs[0].obsCounters))
		hits += r.lease[1].Hits - r.lease[0].Hits
		acquires += r.lease[1].Acquires - r.lease[0].Acquires
		blocks += r.lease[1].Blocks - r.lease[0].Blocks
	}
	var end obsState
	var liveKeys int
	if n := len(b.rounds); n > 0 {
		end, liveKeys = b.rounds[n-1].obs[1], b.rounds[n-1].liveKeys
	}
	get := sum.get
	write := sum.insert.plus(sum.remove)
	points := get.plus(write)

	var logs []*spanLog
	var walkNs, walkKeys, scans int64
	for _, c := range b.clients {
		logs = append(logs, c.log)
		walkNs += c.log.walkNs
		walkKeys += c.log.walkKeys
		scans += c.log.scans
	}
	selfP50 := func(i int) float64 {
		var rs []*reservoir
		for _, l := range logs {
			rs = append(rs, l.self[i])
		}
		q, _ := quantiles(rs, 0.5)
		return q[0]
	}
	carved, reused := float64(sum.slotsUsed), float64(sum.slotsReused)
	commits := float64(sum.walCommits)
	untraced := ratio(float64(b.calls(0)), float64(b.windowNs[0]))
	traced := ratio(float64(b.calls(1)), float64(b.windowNs[1]))
	return []metric{
		{"store.lease_self_ns_p50", selfP50(selfLease), "ns"},
		{"store.lease_hit_ratio", ratio(float64(hits), float64(acquires)), "ratio"},
		{"store.lease_blocks", float64(blocks), "count"},
		{"core.get_self_ns_p50", selfP50(selfCoreGet), "ns"},
		{"core.write_self_ns_p50", selfP50(selfCoreWrite), "ns"},
		{"core.local_origin_ratio", ratio(float64(points.local), float64(points.count)), "ratio"},
		{"core.head_descent_ratio", ratio(float64(points.head), float64(points.count)), "ratio"},
		{"skipgraph.visited_per_get", ratio(float64(get.visited), float64(get.count)), "nodes"},
		{"skipgraph.visited_per_write", ratio(float64(write.visited), float64(write.count)), "nodes"},
		{"skipgraph.cas_retries_per_write", ratio(float64(write.casRetries), float64(write.count)), "count"},
		{"skipgraph.relink_nodes_per_write", ratio(float64(write.relinkNodes), float64(write.count)), "nodes"},
		{"hindex.hit_ratio", ratio(float64(sum.indexHits), float64(sum.indexLookups)), "ratio"},
		{"hindex.entries_per_live_key", ratio(float64(end.indexEntries), float64(liveKeys)), "ratio"},
		{"epoch.snapshot_acquire_ns_p50", selfP50(selfSnapshot), "ns"},
		{"epoch.snapshot_close_ns_p50", selfP50(selfSnapshotClose), "ns"},
		{"epoch.limbo_depth_end", float64(end.limboDepth), "count"},
		{"epoch.pin_lag_max", float64(b.pinLagMax), "epochs"},
		{"snapshot.walk_ns_per_key", ratio(float64(walkNs), float64(walkKeys)), "ns"},
		{"snapshot.keys_per_scan", ratio(float64(walkKeys), float64(scans)), "keys"},
		{"persist.barrier_ns_p50", selfP50(selfBarrier), "ns"},
		{"maintain.queue_depth_end", float64(end.queueDepth), "count"},
		{"maintain.restamps_per_reclaim", ratio(float64(sum.restamps), float64(sum.reclaims)), "ratio"},
		{"maintain.reclaims", float64(sum.reclaims), "count"},
		{"maintain.drops", float64(sum.drops), "count"},
		{"maintain.drain_s", b.median(func(r round) float64 { return r.drainS }), "s"},
		{"node.slots_live", float64(end.slotsLive), "count"},
		{"node.slot_reuse_ratio", ratio(reused, reused+carved), "ratio"},
		{"persist.commits_per_fsync", ratio(commits, float64(sum.walFsyncs)), "ratio"},
		{"persist.commit_wait_ns_per_commit", ratio(float64(sum.walWaitNs), commits), "ns"},
		{"persist.dump_keys_s", ratio(float64(b.dumpStats.Records), b.dumpStats.Elapsed.Seconds()), "keys/s"},
		{"persist.load_keys_s", ratio(float64(b.loadStats.Records), b.loadStats.Elapsed.Seconds()), "keys/s"},
		{"persist.recover_s", b.recoverS, "s"},
		{"persist.wal_replayed", float64(b.loadStats.WALReplayed), "count"},
		{"persist.wal_errs", float64(sum.walErrs), "count"},
		{"trace.overhead_ratio", ratio(untraced, traced) - 1, "ratio"},
	}
}

// calls sums the clients' completed calls in untraced (0) or traced (1)
// windows.
func (b *bench) calls(traced int) int64 {
	var n int64
	for _, c := range b.clients {
		n += c.calls[traced].Load()
	}
	return n
}

// median is the median over rounds of a per-round value.
func (b *bench) median(f func(round) float64) float64 {
	var xs []float64
	for _, r := range b.rounds {
		xs = append(xs, f(r))
	}
	return median(xs)
}

// endToEnd derives the end-to-end metrics of an untraced run: the ones that
// hold steady from run to run on every workload (README.md gives the
// spreads that ruled the others out; report prints them all). op_p50_us
// times the workload's characteristic call: Get on point-read, Barrier on
// churn-durable, RangeScan on scan-restart. Both times are in
// reference-host units (see calib.go); report prints the raw ones.
func (b *bench) endToEnd() []metric {
	return []metric{
		{"op_p50_us", b.median(func(r round) float64 { return r.lat[b.w.opClass][0] }) * b.hostScale(), "us"},
		{"heap_bytes_per_key", b.heapPerKey(), "B"},
		{"setup_s", b.median(func(r round) float64 { return r.setupS }) * b.hostScale(), "s"},
	}
}

// hostScale converts the run's times to reference-host units (calib.go).
func (b *bench) hostScale() float64 {
	return ratio(calibRefSeconds, b.median(func(r round) float64 { return r.calibS }))
}

// heapPerKey is the live heap after GC at the end of a phase, net of the
// benchmark's own allocations, per key the store holds.
func (b *bench) heapPerKey() float64 {
	return b.median(func(r round) float64 { return ratio(r.heapBytes, float64(r.liveKeys)) })
}

// measuredTable is every end-to-end quantity an untraced run measures, for
// the human-readable report; per-round values are medians over the rounds.
func (b *bench) measuredTable() []metric {
	out := []metric{
		{"throughput_ops_s", b.median(func(r round) float64 { return float64(r.calls) / r.phaseS }), "ops/s"},
	}
	var writes uint64
	for class, name := range classNames {
		var n uint64
		for _, r := range b.rounds {
			n += r.timed[class]
		}
		if class == clsWrite {
			writes = n
		}
		if n == 0 {
			continue
		}
		out = append(out,
			metric{name + "_p50_us", b.median(func(r round) float64 { return r.lat[class][0] }), "us"},
			metric{name + "_p99_us", b.median(func(r round) float64 { return r.lat[class][1] }), "us"},
			metric{name + "_calls", float64(n), "count"})
	}
	drain := b.median(func(r round) float64 { return r.drainS })
	return append(out,
		metric{"calibration_s", ratio(calibRefSeconds, b.hostScale()), "s"},
		metric{"setup_s", b.median(func(r round) float64 { return r.setupS }), "s"},
		metric{"recover_s", b.recoverS, "s"},
		metric{"recover_keys_s", ratio(float64(b.loadStats.Records+b.loadStats.WALReplayed), b.recoverS), "keys/s"},
		metric{"drain_s", drain, "s"},
		metric{"drain_us_per_write", ratio(1e6*drain*float64(len(b.rounds)), float64(writes)), "us"},
		metric{"heap_bytes_per_key", b.heapPerKey(), "B"},
	)
}
