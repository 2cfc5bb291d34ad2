package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"layeredsg"
)

// store is the part of *layeredsg.Store the benchmark drives. Only the
// public Store surface is used; tests wrap it to inject faults.
type store interface {
	Get(k int64) (int64, bool)
	Insert(k, v int64) bool
	Remove(k int64) bool
	InsertBatch(keys, values []int64) (int, error)
	Do(fn func(h *layeredsg.Handle[int64, int64]))
	RangeScan(from, to int64, fn func(k, v int64) bool)
	Snapshot() (*layeredsg.Snapshot[int64, int64], error)
	Barrier() error
	Err() error
	StoreToDisk(dir string) (layeredsg.DumpStats, error)
	LeaseStats() layeredsg.LeaseSummary
	Map() *layeredsg.Map[int64, int64]
	Close()
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// dataDir holds the run's WAL, dumps and span file.
	dataDir string
	// shift divides every key count by 2^shift (self-tests run tiny stores).
	shift uint
	// rounds is how many set-up → phase → drain cycles this process runs;
	// 0 takes its share of the workload's count.
	rounds int
	// parts is how many processes the run's rounds are spread over, one
	// after another (parts.go); part is this process's index among them.
	// Only the last part recovers and checks its final store.
	part, parts int
	// budget bounds the whole run; each phase's watchdog deadline is capped
	// by what is left of it.
	budget time.Duration
	// wrap, when set, wraps every store the run opens (fault injection).
	wrap func(store) store
}

// Call classes with their own latency samples.
const (
	clsGet   = iota // Get
	clsWrite        // Insert and Remove
	clsAck          // Barrier
	clsScan         // RangeScan
	nClasses
)

var classNames = [nClasses]string{"get", "write", "ack", "scan"}

// client is one closed-loop caller. Its model holds exactly the keys of its
// own partition; no other goroutine writes them.
type client struct {
	id   int
	rng  *rand.Rand
	zipf *rand.Zipf
	own  keySet
	lat  [nClasses]*reservoir // this round's latency samples per call class
	// calls counts completed calls, split by whether a traced window was
	// open when the call began.
	calls [2]atomic.Int64
	log   *spanLog
	// Workload cursors.
	muts    int
	fresh   int64
	scanPos float64
	keys    []int64
	vals    []int64
}

type bench struct {
	opt   options
	w     *workload
	chk   checker
	epoch time.Time
	// attempted counts client calls plus the run's lifecycle steps.
	attempted atomic.Int64

	perm []int64 // Zipf rank → key (point-read)
	// seeds draws each round's input seed from --seed; roundSeed is the
	// current round's.
	seeds     *rand.Rand
	roundSeed int64
	calib     *calibration
	st        store
	tracer    *layeredsg.Tracer // the phase store's tracer (traced runs)
	tracers   []*layeredsg.Tracer
	clients   []*client
	base      keySet // keys no client writes during the phase
	life      lifecycleSpans

	stop   atomic.Bool
	stopCh chan struct{}
	tokens chan struct{}
	// traced is set while a traced window is open (traced runs only).
	traced atomic.Bool

	// Measurements.
	rounds    []round
	windowNs  [2]int64
	recoverS  float64
	dumpStats layeredsg.DumpStats
	loadStats layeredsg.LoadStats
	pinLagMax uint64
}

func newBench(opt options) (*bench, error) {
	w, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, workloadNames())
	}
	if opt.parts < 1 {
		opt.parts = 1
	}
	if opt.rounds < 1 {
		opt.rounds = max(roundsPerRun/opt.parts, 1)
	}
	b := &bench{opt: opt, w: w, epoch: time.Now(), seeds: rand.New(rand.NewSource(opt.seed))}
	// A part draws the round seeds the parts before it used, so a split run
	// sets up the same stores a single process would.
	for i := 0; i < opt.part*opt.rounds; i++ {
		b.seeds.Int63()
	}
	b.life.log = newSpanLog(-1, uint64(opt.seed))
	keys := b.size(w.keys)
	// Buffered so the scanner never waits on the writer: it hands out
	// insertsPerScan tokens per scan and drops any the writer has not
	// taken by the next hand-out.
	b.tokens = make(chan struct{}, insertsPerScan)
	for id := 0; id < clientCount; id++ {
		rng := rand.New(rand.NewSource(opt.seed*1000003 + int64(opt.part*clientCount+id) + 1))
		c := &client{id: id, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(keys-1))}
		for i := range c.lat {
			c.lat[i] = newReservoir(uint64(opt.seed)*31 + uint64((opt.part*clientCount+id)*nClasses+i))
		}
		if opt.trace {
			c.log = newSpanLog(id, uint64(opt.seed)+uint64(id))
		}
		b.clients = append(b.clients, c)
	}
	return b, nil
}

// size scales a key count for the run.
func (b *bench) size(n int64) int64 { return max(n>>b.opt.shift, 16) }

// now is the run clock for spans.
func (b *bench) now() int64 { return int64(time.Since(b.epoch)) }

// config is the production configuration every store of the run uses.
func (b *bench) config(walDir string) (layeredsg.Config, error) {
	machine, err := layeredsg.Pin(layeredsg.PaperMachine(), machineThreads)
	if err != nil {
		return layeredsg.Config{}, err
	}
	cfg := layeredsg.Config{
		Machine:     machine,
		Kind:        layeredsg.LazyLayeredSG,
		Index:       layeredsg.IndexAuto,
		Reclaim:     layeredsg.ReclaimAuto,
		Maintenance: layeredsg.MaintBackground,
		WAL:         walDir,
		WALSync:     layeredsg.SyncGroup,
	}
	if b.opt.trace {
		cfg.Tracer = layeredsg.NewTracer(layeredsg.TracerConfig{Name: "perfbench"})
		b.tracers = append(b.tracers, cfg.Tracer)
		b.tracer = cfg.Tracer
	}
	return cfg, nil
}

func (b *bench) wrap(s *layeredsg.Store[int64, int64]) store {
	if b.opt.wrap != nil {
		return b.opt.wrap(s)
	}
	return s
}

// open builds a fresh store journaling into dir/wal.
func (b *bench) open(dir string) (store, error) {
	b.attempted.Add(1)
	cfg, err := b.config(filepath.Join(dir, "wal"))
	if err != nil {
		return nil, err
	}
	s, err := layeredsg.NewStore[int64, int64](cfg)
	if err != nil {
		return nil, fmt.Errorf("NewStore: %w", err)
	}
	return b.wrap(s), nil
}

// load recovers a store from dir/dump plus the WAL in dir/wal.
func (b *bench) load(dir string) (store, layeredsg.LoadStats, error) {
	b.attempted.Add(1)
	cfg, err := b.config(filepath.Join(dir, "wal"))
	if err != nil {
		return nil, layeredsg.LoadStats{}, err
	}
	t0 := b.now()
	s, ls, err := layeredsg.LoadFromDisk[int64, int64](filepath.Join(dir, "dump"), cfg)
	b.life.record(spLoad, t0, b.now())
	if err != nil {
		return nil, ls, fmt.Errorf("LoadFromDisk: %w", err)
	}
	return b.wrap(s), ls, nil
}

// dump writes the base dump into dir/dump.
func (b *bench) dump(s store, dir string) error {
	b.attempted.Add(1)
	t0 := b.now()
	ds, err := s.StoreToDisk(filepath.Join(dir, "dump"))
	b.life.record(spDump, t0, b.now())
	if err != nil {
		return fmt.Errorf("StoreToDisk: %w", err)
	}
	b.dumpStats = ds
	return nil
}

// fill inserts keys with InsertBatch from clientCount goroutines and adds
// them to state. Every key must be fresh.
func (b *bench) fill(s store, keys []int64, state keySet) {
	b.attempted.Add(1)
	const batch = 1024
	var inserted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clientCount; g++ {
		wg.Add(1)
		go func(part []int64) {
			defer wg.Done()
			vals := make([]int64, 0, batch)
			for len(part) > 0 {
				n := min(batch, len(part))
				vals = vals[:0]
				for _, k := range part[:n] {
					vals = append(vals, valueOf(k))
				}
				got, err := s.InsertBatch(part[:n], vals)
				if err != nil {
					b.chk.fail("InsertBatch: %v", err)
				}
				inserted.Add(int64(got))
				part = part[n:]
			}
		}(keys[g*len(keys)/clientCount : (g+1)*len(keys)/clientCount])
	}
	wg.Wait()
	if got := inserted.Load(); got != int64(len(keys)) {
		b.chk.fail("fill inserted %d of %d fresh keys", got, len(keys))
	}
	for _, k := range keys {
		state.add(k)
	}
}

// verify lists the whole store and checks it equals want, and that the
// store reports no persistence error.
func (b *bench) verify(s store, want keySet, what string) {
	b.attempted.Add(1)
	var keys, vals []int64
	s.RangeScan(0, int64(len(want))*64, func(k, v int64) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	b.chk.equal(what, keys, vals, want)
	b.checkErr(s, what)
}

func (b *bench) checkErr(s store, what string) {
	b.attempted.Add(1)
	if err := s.Err(); err != nil {
		b.chk.fail("%s: Store.Err: %v", what, err)
	}
}

// errWatchdog marks a phase that overran its deadline.
var errWatchdog = errors.New("watchdog: phase overran its deadline")

// step runs one phase under a watchdog. A phase that overruns fails the run
// with a goroutine dump; it is never retried.
func (b *bench) step(name string, limit time.Duration, fn func() error) error {
	if left := b.opt.budget - time.Since(b.epoch); left < limit {
		limit = max(left, time.Second)
	}
	done := make(chan error, 1)
	go func() { done <- fn() }()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	t0 := time.Now()
	select {
	case err := <-done:
		fmt.Fprintf(os.Stderr, "perfbench: %s took %v\n", name, time.Since(t0).Round(time.Millisecond))
		if err != nil {
			b.chk.fail("%s: %v", name, err)
		}
		return err
	case <-timer.C:
		b.chk.fail("phase %s overran its %v deadline", name, limit)
		buf := make([]byte, 1<<22)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: phase %s overran %v; goroutines:\n%s\n", name, limit, buf)
		return fmt.Errorf("%s: %w", name, errWatchdog)
	}
}

// round is one set-up → measured phase → drain cycle on a fresh store.
type round struct {
	setupS, phaseS, drainS float64
	// calibS is the calibration workload's time between the set-up and
	// the warm-up.
	calibS float64
	// heapBefore is the live heap before the set-up; whatever earlier
	// rounds left behind is in it, so heapBytes counts this round's store
	// only.
	heapBefore uint64
	calls      int64 // untraced calls completed in the phase
	// lat holds each call class's p50 and p99 in µs; timed counts its calls.
	lat       [nClasses][2]float64
	timed     [nClasses]uint64
	liveKeys  int
	heapBytes float64
	obs       [2]obsState // Tracer state at phase start and end
	lease     [2]layeredsg.LeaseSummary
}

// run executes opt.rounds rounds. Each sets up a fresh store, waits for the
// background work the set-up left to finish, warms the store with untimed
// reads, runs an equal share of the measured time on it and drains it with
// Close. Per-round values are reported as medians over the rounds: a store's
// call latencies move with its layout and with what its helpers happen to
// be doing, so many short rounds on fresh stores give a steadier median
// than a few long ones. In the run's last part, the last round's store is
// then recovered with LoadFromDisk and checked. A run stops at the first
// phase that errors.
func (b *bench) run() error {
	phase := b.opt.seconds / time.Duration(b.opt.rounds*b.opt.parts)
	if b.calib == nil {
		b.calib = newCalibration(b.opt.seed)
	}

	for i := 0; i < b.opt.rounds; i++ {
		var r round
		dir := filepath.Join(b.opt.dataDir, fmt.Sprintf("round-%d", i))
		var state keySet
		b.roundSeed = b.seeds.Int63()
		err := b.step("setup", setupLimit, func() error {
			// Collect the previous round's store first, so the set-up is
			// not timed while the collector frees another store's heap.
			r.heapBefore = liveHeap()
			t0 := time.Now()
			var err error
			b.st, state, err = b.w.setup(b, dir)
			if err == nil {
				// Work the set-up deferred to the maintenance helpers is
				// set-up work: it counts in setup_s and is done before the
				// phase, so the phase does not time the helpers' catch-up.
				settle(settleLimit)
			}
			r.setupS = time.Since(t0).Seconds()
			return err
		})
		if err != nil {
			return err
		}
		// Calibrate with the store built and its helpers idle: the state
		// the phase starts from, the same in every round. The warm-up
		// then refills the caches the calibration walked over.
		r.calibS = b.calib.seconds()
		b.assign(state)
		if err := b.step("warm-up", warmUp+measureSlack, func() error { b.warmUp(warmUp); return nil }); err != nil {
			return err
		}
		if err := b.step("measure", phase+measureSlack, func() error { b.measure(&r, phase); return nil }); err != nil {
			return err
		}
		err = b.step("drain", closeLimit, func() error {
			b.attempted.Add(1)
			t0, s0 := time.Now(), b.now()
			b.st.Close()
			r.drainS = time.Since(t0).Seconds()
			b.life.record(spDrain, s0, b.now())
			return nil
		})
		b.rounds = append(b.rounds, r)
		if err != nil {
			return err
		}
		// Let the drained store go, so the next round's heap is measured
		// without it. A registered Tracer keeps its store reachable until
		// it is closed.
		b.st, b.tracer = nil, nil
		b.closeTracers()
		if i < b.opt.rounds-1 || b.opt.part < b.opt.parts-1 {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		if err := b.recover(dir); err != nil {
			return err
		}
	}
	b.closeTracers()
	return nil
}

func (b *bench) closeTracers() {
	for _, t := range b.tracers {
		t.Close()
	}
	b.tracers = nil
}

// assign hands each client the model of its own partition of the set-up
// state.
func (b *bench) assign(state keySet) {
	n := int64(len(state)) * 64
	for _, c := range b.clients {
		c.own = state.filter(n, func(k int64) bool { return b.w.owner(k) == c.id })
		c.scanPos = c.rng.Float64()
	}
	b.base = state.filter(n, func(k int64) bool { return b.w.owner(k) < 0 })
}

// recover rebuilds the drained store from its dump and WAL and checks it
// holds exactly the union of the clients' models.
func (b *bench) recover(dir string) error {
	var rec store
	err := b.step("recover", recoverLimit, func() error {
		runtime.GC()
		t0 := time.Now()
		var err error
		rec, b.loadStats, err = b.load(dir)
		b.recoverS = time.Since(t0).Seconds()
		return err
	})
	if err != nil {
		return err
	}
	want := b.base
	for _, c := range b.clients {
		want = want.union(c.own)
	}
	// The recovered store is not closed: its Close would drain the limbo
	// backlog the replay's removals leave (the cost the drain step already
	// measures), and nothing reads the store or its files afterwards.
	return b.step("verify", verifyLimit, func() error { b.verify(rec, want, "recovered store"); return nil })
}

// measure runs the closed-loop clients for d.
func (b *bench) measure(r *round, d time.Duration) {
	b.stop.Store(false)
	b.stopCh = make(chan struct{})
	if b.tracer != nil {
		r.obs[0] = readObs(b.tracer)
	}
	r.lease[0] = b.st.LeaseStats()
	calls0 := b.calls(0)

	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !b.stop.Load() {
				b.w.step(b, c)
			}
		}()
	}
	if b.opt.trace {
		b.windows(start, d)
	} else {
		time.Sleep(d)
	}
	b.stop.Store(true)
	close(b.stopCh)
	wg.Wait()
	r.phaseS = time.Since(start).Seconds()
	r.calls = b.calls(0) - calls0
	for class := range r.lat {
		var rs []*reservoir
		for _, c := range b.clients {
			rs = append(rs, c.lat[class])
		}
		q, n := quantiles(rs, 0.5, 0.99)
		r.lat[class] = [2]float64{q[0] / 1e3, q[1] / 1e3}
		r.timed[class] = n
		for _, res := range rs {
			res.reset()
		}
	}

	b.checkErr(b.st, "end of phase")
	r.lease[1] = b.st.LeaseStats()
	if b.tracer != nil {
		r.obs[1] = readObs(b.tracer)
	}
	r.liveKeys = b.st.Map().Len()
	r.heapBytes = float64(liveHeap()) - float64(r.heapBefore)
}

// warmUp runs untimed read-only calls of the workload's kind from every
// client for d, checking each, so the phase starts on warm caches. Reads
// leave nothing behind for the drain, unlike a warm-up on the full mix.
func (b *bench) warmUp(d time.Duration) {
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n int64
			for ; time.Now().Before(end); n++ {
				b.w.warm(b, c)
			}
			b.attempted.Add(n)
		}()
	}
	wg.Wait()
}

// settlePoll is the interval settle samples the process's CPU time over.
const settlePoll = 10 * time.Millisecond

// settle returns once the process has been idle, using under a tenth of a
// CPU, for two consecutive settlePoll intervals, or after limit. Nothing but
// the store's helpers runs while it waits, so idleness means the store has
// finished its deferred work.
func settle(limit time.Duration) {
	deadline := time.Now().Add(limit)
	quiet := 0
	t, cpu := time.Now(), cpuTime()
	for quiet < 2 && time.Now().Before(deadline) {
		time.Sleep(settlePoll)
		t1, cpu1 := time.Now(), cpuTime()
		if cpu1-cpu < t1.Sub(t)/10 {
			quiet++
		} else {
			quiet = 0
		}
		t, cpu = t1, cpu1
	}
}

// cpuTime is the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap returns the heap in use after collecting garbage. It collects
// twice: a Store's handle-hint sync.Pool keeps the whole Store reachable
// through the runtime's pool list until the second collection after its
// last use.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// traceWindows is how many traced or untraced windows a traced run's phase
// is cut into. Alternating short windows exposes both halves to the same
// store state, so their throughput ratio is the tracing overhead.
const traceWindows = 6

// windows alternates untraced and traced windows until the phase ends,
// sampling the epoch pin lag at every switch.
func (b *bench) windows(start time.Time, d time.Duration) {
	end := start.Add(d)
	traceWindow := d / traceWindows
	on := false
	last := start
	for {
		now := time.Now()
		b.windowNs[boolIndex(on)] += int64(now.Sub(last))
		last = now
		if e := b.tracer.Snapshot().Epoch; e != nil && e.PinLag > b.pinLagMax {
			b.pinLagMax = e.PinLag
		}
		if !now.Before(end) {
			break
		}
		on = !on
		layeredsg.SetObservability(on)
		b.traced.Store(on)
		time.Sleep(min(traceWindow, end.Sub(now)))
	}
	layeredsg.SetObservability(false)
	b.traced.Store(false)
}

func boolIndex(v bool) int {
	if v {
		return 1
	}
	return 0
}

// The calls below issue one client call, time it and check its result.
// In a traced window a point call runs inside Store.Do so the lease (the
// store.<op> span) and the core operation (its core.<op> child) are timed
// apart; untraced calls use the plain Store methods.

func (b *bench) get(c *client, k int64) {
	traced := b.traced.Load()
	var v int64
	var ok bool
	if traced {
		var t1, t2 int64
		t0 := b.now()
		b.st.Do(func(h *layeredsg.Handle[int64, int64]) {
			t1 = b.now()
			v, ok = h.Get(k)
			t2 = b.now()
		})
		c.log.pointCall(spStoreGet, spCoreGet, t0, t1, t2, b.now())
	} else {
		t0 := time.Now()
		v, ok = b.st.Get(k)
		c.time(clsGet, t0)
	}
	c.calls[boolIndex(traced)].Add(1)
	b.checkGet(c, k, v, ok)
}

// time records a call of class that began at t0.
func (c *client) time(class int, t0 time.Time) { c.lat[class].add(int64(time.Since(t0))) }

// warmGet is an untimed Get for the warm-up.
func (b *bench) warmGet(c *client, k int64) {
	v, ok := b.st.Get(k)
	b.checkGet(c, k, v, ok)
}

func (b *bench) checkGet(c *client, k, v int64, ok bool) {
	if ok {
		b.chk.value("Get", k, v)
	}
	if b.w.owner(k) == c.id && ok != c.own.has(k) {
		b.chk.fail("Get(%d) found=%v, model says present=%v", k, ok, c.own.has(k))
	}
}

func (b *bench) insert(c *client, k int64) {
	traced := b.traced.Load()
	var ok bool
	if traced {
		var t1, t2 int64
		t0 := b.now()
		b.st.Do(func(h *layeredsg.Handle[int64, int64]) {
			t1 = b.now()
			ok = h.Insert(k, valueOf(k))
			t2 = b.now()
		})
		c.log.pointCall(spStoreInsert, spCoreInsert, t0, t1, t2, b.now())
	} else {
		t0 := time.Now()
		ok = b.st.Insert(k, valueOf(k))
		c.time(clsWrite, t0)
	}
	c.calls[boolIndex(traced)].Add(1)
	if ok == c.own.has(k) {
		b.chk.fail("Insert(%d) returned %v, model says present=%v", k, ok, c.own.has(k))
	}
	c.own.add(k)
}

func (b *bench) remove(c *client, k int64) {
	traced := b.traced.Load()
	var ok bool
	if traced {
		var t1, t2 int64
		t0 := b.now()
		b.st.Do(func(h *layeredsg.Handle[int64, int64]) {
			t1 = b.now()
			ok = h.Remove(k)
			t2 = b.now()
		})
		c.log.pointCall(spStoreRemove, spCoreRemove, t0, t1, t2, b.now())
	} else {
		t0 := time.Now()
		ok = b.st.Remove(k)
		c.time(clsWrite, t0)
	}
	c.calls[boolIndex(traced)].Add(1)
	if ok != c.own.has(k) {
		b.chk.fail("Remove(%d) returned %v, model says present=%v", k, ok, c.own.has(k))
	}
	c.own.del(k)
}

func (b *bench) barrier(c *client) {
	traced := b.traced.Load()
	var err error
	if traced {
		t0 := b.now()
		err = b.st.Barrier()
		c.log.barrierCall(t0, b.now())
	} else {
		t0 := time.Now()
		err = b.st.Barrier()
		c.time(clsAck, t0)
	}
	c.calls[boolIndex(traced)].Add(1)
	if err != nil {
		b.chk.fail("Barrier: %v", err)
	}
}

// scan runs RangeScan over [from, to]. In a traced window it performs the
// same steps RangeScan does — Snapshot, AscendFrom, Close — timing each.
func (b *bench) scan(c *client, from, to int64) {
	traced := b.traced.Load()
	collect := c.collector(to)
	if traced {
		t0 := b.now()
		snap, err := b.st.Snapshot()
		if err != nil {
			b.chk.fail("Snapshot: %v", err)
			return
		}
		t1 := b.now()
		snap.AscendFrom(from, collect)
		t2 := b.now()
		snap.Close()
		t3 := b.now()
		c.log.scanCall(t0, t1, t2, t3, b.now(), len(c.keys))
	} else {
		t0 := time.Now()
		b.st.RangeScan(from, to, collect)
		c.time(clsScan, t0)
	}
	c.calls[boolIndex(traced)].Add(1)
	b.checkScan(c, from, to)
}

// warmScan is an untimed RangeScan for the warm-up.
func (b *bench) warmScan(c *client, from, to int64) {
	b.st.RangeScan(from, to, c.collector(to))
	b.checkScan(c, from, to)
}

// collector empties the client's scan buffers and returns a RangeScan
// callback that fills them with the keys up to to.
func (c *client) collector(to int64) func(k, v int64) bool {
	c.keys, c.vals = c.keys[:0], c.vals[:0]
	return func(k, v int64) bool {
		if k > to {
			return false
		}
		c.keys = append(c.keys, k)
		c.vals = append(c.vals, v)
		return true
	}
}

func (b *bench) checkScan(c *client, from, to int64) {
	b.chk.scan(from, to, c.keys, c.vals, b.base, func(k int64) bool { return b.w.owner(k) >= 0 })
}
