package main

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"
)

const (
	// clientCount closed-loop client goroutines drive every workload, one
	// per CPU of the 2-CPU host the baseline was taken on.
	clientCount = 2
	// machineThreads pins PaperMachine to 16 logical threads: 16 stripes and
	// one maintenance helper per socket.
	machineThreads = 16
	// zipfS is point-read's key skew.
	zipfS = 1.1
	// barrierEvery is how many of its own mutations a churn-durable client
	// makes between Barriers.
	barrierEvery = 32
	// scanWindowKeys is the number of preloaded keys a scan-restart window
	// spans (preloaded keys sit every keyStride keys).
	scanWindowKeys = 100
	keyStride      = 4
	// insertsPerScan couples scan-restart's writer to its scanner: the
	// writer may insert this many fresh keys per completed scan, so the
	// store grows with the number of scans rather than without bound.
	insertsPerScan = 8
	// weylStep is the golden ratio's fractional part, the step of the
	// equidistributed sequence scan-restart draws window starts from.
	weylStep = 0.6180339887498949
)

// warmUp is the untimed read-only warm-up before each measured phase;
// settleLimit caps the wait for the helpers to go idle after a set-up.
const (
	warmUp      = 100 * time.Millisecond
	settleLimit = 10 * time.Second
)

// roundsPerRun is how many fresh stores a run spreads its measured time
// over: as many as the run's time allows, which point-read's drain after
// each phase limits. An untraced run spreads them evenly over partsPerRun
// processes (parts.go).
const (
	roundsPerRun = 16
	partsPerRun  = 4
)

// Watchdog deadlines per phase; every one is also capped by the run budget.
const (
	setupLimit   = 60 * time.Second
	measureSlack = 20 * time.Second
	closeLimit   = 150 * time.Second
	recoverLimit = 60 * time.Second
	verifyLimit  = 30 * time.Second
)

// workload is one traffic mix. keys is the key range [0, keys) before
// scaling; owner names the client that writes a key, or -1; warm issues one
// untimed read for the warm-up.
type workload struct {
	keys    int64
	owner   func(k int64) int
	setup   func(b *bench, dir string) (store, keySet, error)
	step    func(b *bench, c *client)
	warm    func(b *bench, c *client)
	opClass int // the call op_p50_us / op_p99_us time
}

var workloads = map[string]*workload{
	"point-read": {
		keys:    1 << 17,
		owner:   ownerByParity,
		setup:   setupPointRead,
		step:    stepPointRead,
		warm:    warmPointRead,
		opClass: clsGet,
	},
	"churn-durable": {
		keys:    1 << 13,
		owner:   ownerByParity,
		setup:   setupChurn,
		step:    stepChurn,
		warm:    warmChurn,
		opClass: clsAck,
	},
	"scan-restart": {
		keys:    keyStride << 16,
		owner:   ownerFresh,
		setup:   setupScanRestart,
		step:    stepScanRestart,
		warm:    warmScanRestart,
		opClass: clsScan,
	},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ownerByParity splits writes between the two clients by key parity.
func ownerByParity(k int64) int { return int(k & 1) }

// ownKey moves k into client c's parity partition.
func ownKey(k int64, c *client) int64 { return k&^1 | int64(c.id) }

// ownerFresh gives scan-restart's writer (client 1) the odd keys, which
// set-up never writes; preloaded (stride-aligned) and ingested keys have no
// writer during the phase.
func ownerFresh(k int64) int {
	if k&1 == 1 {
		return 1
	}
	return -1
}

// setupRandomHalf opens a store, fills it with a seeded random half of the
// key range and writes the base dump, so the measured phase lives in the WAL.
func setupRandomHalf(b *bench, dir string) (store, keySet, error) {
	keys := b.size(b.w.keys)
	s, err := b.open(dir)
	if err != nil {
		return nil, nil, err
	}
	live := make([]int64, keys/2)
	for i, k := range rand.New(rand.NewSource(b.roundSeed)).Perm(int(keys))[:keys/2] {
		live[i] = int64(k)
	}
	state := newKeySet(keys)
	b.fill(s, live, state)
	if err := b.dump(s, dir); err != nil {
		return nil, nil, err
	}
	return s, state, nil
}

// point-read: 2^16 live keys of a 2^17-key range, Zipf(1.1) over shuffled
// ranks; 90% Get, 5% Insert, 5% Remove. Each round shuffles the ranks
// afresh: at s = 1.1 the few hottest keys take a large share of the calls,
// and whether they are live moves the Get median, so a run takes its median
// over as many hot sets as it has rounds.
func setupPointRead(b *bench, dir string) (store, keySet, error) {
	keys := b.size(b.w.keys)
	b.perm = make([]int64, keys)
	for i, k := range rand.New(rand.NewSource(^b.roundSeed)).Perm(int(keys)) {
		b.perm[i] = int64(k)
	}
	return setupRandomHalf(b, dir)
}

func stepPointRead(b *bench, c *client) {
	k := b.perm[c.zipf.Uint64()]
	switch r := c.rng.Intn(100); {
	case r < 90:
		b.get(c, k)
	case r < 95:
		b.insert(c, ownKey(k, c))
	default:
		b.remove(c, ownKey(k, c))
	}
}

func warmPointRead(b *bench, c *client) { b.warmGet(c, b.perm[c.zipf.Uint64()]) }

// churn-durable: a 2^13-key window, half live at set-up; uniform 50/50
// Insert/Remove, each client acknowledging every barrierEvery of its own
// mutations with a Barrier.
var setupChurn = setupRandomHalf

func stepChurn(b *bench, c *client) {
	k := ownKey(c.rng.Int63n(b.size(b.w.keys)), c)
	if c.rng.Intn(2) == 0 {
		b.insert(c, k)
	} else {
		b.remove(c, k)
	}
	if c.muts++; c.muts%barrierEvery == 0 {
		b.barrier(c)
	}
}

func warmChurn(b *bench, c *client) { b.warmGet(c, c.rng.Int63n(b.size(b.w.keys))) }

// scan-restart set-up: fill 2^16 stride-aligned keys with InsertBatch, dump,
// ingest a sixteenth as many again (2^12 keys) into the WAL, Barrier, Close,
// then recover with LoadFromDisk and check the recovered store.
func setupScanRestart(b *bench, dir string) (store, keySet, error) {
	preload := b.size(b.w.keys) / keyStride
	ingest := preload / 16
	s, err := b.open(dir)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(b.roundSeed))
	keys := make([]int64, preload)
	for i, p := range rng.Perm(int(preload)) {
		keys[i] = int64(p) * keyStride
	}
	state := newKeySet(b.size(b.w.keys))
	b.fill(s, keys, state)
	if err := b.dump(s, dir); err != nil {
		return nil, nil, err
	}
	keys = keys[:ingest]
	for i, p := range rng.Perm(int(preload))[:ingest] {
		keys[i] = int64(p)*keyStride + 2
	}
	b.fill(s, keys, state)
	b.attempted.Add(1)
	if err := s.Barrier(); err != nil {
		b.chk.fail("set-up Barrier: %v", err)
	}
	b.attempted.Add(1)
	s.Close()
	rec, _, err := b.load(dir)
	if err != nil {
		return nil, nil, err
	}
	b.verify(rec, state, "set-up recovery")
	return rec, state, nil
}

// warmScanRestart has both clients scan windows at random starts.
func warmScanRestart(b *bench, c *client) {
	from := c.rng.Int63n(b.size(b.w.keys))
	b.warmScan(c, from, from+scanWindowKeys*keyStride-1)
}

// scan-restart phase: client 0 scans windows of ~scanWindowKeys preloaded
// keys at uniform starts; client 1 inserts fresh (odd) keys only, at most
// insertsPerScan per completed scan.
func stepScanRestart(b *bench, c *client) {
	keys := b.size(b.w.keys)
	if c.id == 0 {
		// Window starts follow a Weyl sequence from a seeded offset: each
		// start is uniform over the range, and any run of consecutive starts
		// covers it evenly, so the scan latency percentiles do not swing
		// with where a few hundred random starts happened to fall.
		c.scanPos = math.Mod(c.scanPos+weylStep, 1)
		from := int64(c.scanPos * float64(keys))
		b.scan(c, from, from+scanWindowKeys*keyStride-1)
		for i := 0; i < insertsPerScan; i++ {
			select {
			case b.tokens <- struct{}{}:
			default:
			}
		}
		return
	}
	select {
	case <-b.tokens:
	case <-b.stopCh:
		return
	}
	// Odd keys in a fixed pseudo-random order: an odd multiplier permutes
	// the keys/2 odd slots, so every key inserted is fresh.
	slots := keys / 2
	if c.fresh == slots {
		return
	}
	k := (c.fresh*0x9E3779B1)%slots*2 + 1
	c.fresh++
	b.insert(c, k)
}
