package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"layeredsg"
)

// An untraced run spreads its rounds over several processes, the parts, run
// one after another; each part runs its share of the rounds and hands them
// to the parent process, which reports the medians over all of them. Rounds
// in one process share whatever that process was dealt — where its heap and
// the calibration buffer landed in memory, how its threads were placed —
// and on the 2-vCPU host the baseline was taken on, that moved Get p50 by
// about 5% from one process to the next, as much as the 16 rounds of a run
// moved their own median. Spread over parts, that effect averages out
// instead of shifting whole runs. Traced runs stay in one process.

// partPrefix starts the line on which a part hands its rounds to the parent.
const partPrefix = "part "

// partSlack is how long past the run's budget the parent waits for a part
// before killing it; the part's own watchdog fires first.
const partSlack = 15 * time.Second

// partRecord is what a part hands to the parent.
type partRecord struct {
	Rounds []roundRecord
	// Attempted counts the part's client calls and lifecycle steps.
	Attempted, Failed int64
	// Error is the part's run error, if any.
	Error string
	// RecoverS and Load are set by the last part, which recovers its final
	// store.
	RecoverS float64
	Load     layeredsg.LoadStats
}

// roundRecord carries the fields of a round an untraced run reports.
type roundRecord struct {
	SetupS, PhaseS, DrainS, CalibS float64
	Calls                          int64
	Lat                            [nClasses][2]float64
	Timed                          [nClasses]uint64
	LiveKeys                       int
	HeapBytes                      float64
}

// record packs what this part measured for the parent.
func (b *bench) record(runErr error) partRecord {
	rec := partRecord{
		Attempted: b.attempted.Load() + b.calls(0) + b.calls(1),
		Failed:    b.chk.failed.Load(),
		RecoverS:  b.recoverS,
		Load:      b.loadStats,
	}
	if runErr != nil {
		rec.Error = runErr.Error()
	}
	for _, r := range b.rounds {
		rec.Rounds = append(rec.Rounds, roundRecord{
			SetupS: r.setupS, PhaseS: r.phaseS, DrainS: r.drainS, CalibS: r.calibS,
			Calls: r.calls, Lat: r.lat, Timed: r.timed, LiveKeys: r.liveKeys, HeapBytes: r.heapBytes,
		})
	}
	return rec
}

// merge adds a part's rounds and counts to the parent's.
func (b *bench) merge(rec partRecord) {
	for _, r := range rec.Rounds {
		b.rounds = append(b.rounds, round{
			setupS: r.SetupS, phaseS: r.PhaseS, drainS: r.DrainS, calibS: r.CalibS,
			calls: r.Calls, lat: r.Lat, timed: r.Timed, liveKeys: r.LiveKeys, heapBytes: r.HeapBytes,
		})
	}
	b.attempted.Add(rec.Attempted)
	b.chk.failed.Add(rec.Failed)
	if rec.RecoverS > 0 {
		b.recoverS, b.loadStats = rec.RecoverS, rec.Load
	}
}

// spawnFunc runs part i of the run within budget and returns its standard
// output.
type spawnFunc func(ctx context.Context, part int, budget time.Duration) ([]byte, error)

// execPart runs part i in a child process of this executable. The child
// shares the parent's standard error and environment; exec.CommandContext
// kills it if ctx ends first, and Output waits for it to exit either way.
func (b *bench) execPart(ctx context.Context, part int, budget time.Duration) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", b.opt.workload,
		"-seed", strconv.FormatInt(b.opt.seed, 10),
		"-seconds", strconv.FormatFloat(b.opt.seconds.Seconds(), 'g', -1, 64),
		"-trace", "0",
		"-part", strconv.Itoa(part),
		"-budget", strconv.FormatFloat(budget.Seconds(), 'g', -1, 64))
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// runParts runs the parts one after another and merges what they measured.
// As in a single process, failed checks are counted and the run goes on; it
// stops at the first part whose run errs or that hands over no record. A
// part exits 1 when its checks failed, which its record already counts.
func (b *bench) runParts(spawn spawnFunc) error {
	for i := 0; i < b.opt.parts; i++ {
		left := b.opt.budget - time.Since(b.epoch)
		if left <= 0 {
			b.chk.fail("part %d: run budget spent", i)
			return fmt.Errorf("part %d: %w", i, errWatchdog)
		}
		ctx, cancel := context.WithTimeout(context.Background(), left+partSlack)
		out, err := spawn(ctx, i, left)
		cancel()
		rec, perr := parsePart(out)
		if perr != nil {
			b.chk.fail("part %d: %v (exit: %v)", i, perr, err)
			return fmt.Errorf("part %d: %w", i, perr)
		}
		b.merge(rec)
		if rec.Error != "" {
			return fmt.Errorf("part %d: %s", i, rec.Error)
		}
		if err != nil && rec.Failed == 0 {
			b.chk.fail("part %d: %v", i, err)
			return fmt.Errorf("part %d: %w", i, err)
		}
	}
	return nil
}

// parsePart reads the record from the last line of a part's output.
func parsePart(out []byte) (partRecord, error) {
	var rec partRecord
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := lines[len(lines)-1]
	if !bytes.HasPrefix(last, []byte(partPrefix)) {
		return rec, errors.New("no part record on standard output")
	}
	err := json.Unmarshal(last[len(partPrefix):], &rec)
	return rec, err
}

// formatPart is the line on which a part hands rec to the parent.
func formatPart(rec partRecord) []byte {
	line, _ := json.Marshal(rec)
	return append([]byte(partPrefix), line...)
}
