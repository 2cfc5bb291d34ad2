// Command perfbench is the repository's benchmark: it drives the public
// layeredsg Store API in the production configuration (LazyLayeredSG with
// the hash index, slot reclamation, background maintenance and a
// group-commit WAL) with two closed-loop clients, checks every result
// against a model, and prints its metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// alternates traced and untraced windows and reports per-layer metrics
// plus the tracing overhead. See README.md for the workloads and metrics.
//
//	python3 perfbench/run.py --workload point-read --seed 1 --seconds 1 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	opt := options{budget: 160 * time.Second}
	var seconds, budget float64
	var trace, part int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+workloadNames())
	flag.Int64Var(&opt.seed, "seed", 1, "input seed")
	flag.Float64Var(&seconds, "seconds", 1, "measured seconds, shared by the rounds")
	flag.IntVar(&trace, "trace", 0, "1 for a traced run reporting per-layer metrics")
	flag.IntVar(&part, "part", -1, "internal: run only this part of an untraced run (parts.go)")
	flag.Float64Var(&budget, "budget", opt.budget.Seconds(), "internal: seconds the run may take")
	flag.Parse()
	if seconds <= 0 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	opt.seconds = time.Duration(seconds * float64(time.Second))
	opt.budget = time.Duration(budget * float64(time.Second))
	opt.trace = trace == 1
	if !opt.trace {
		opt.parts = partsPerRun
	}
	opt.part = max(part, 0)
	parent := part < 0 && opt.parts > 1
	root := os.Getenv("PERFBENCH_DATA")
	if root == "" {
		root = filepath.Join(".bench_build", "perfbench")
	}
	opt.dataDir = filepath.Join(root, fmt.Sprintf("run-%s-%d-%d", opt.workload, opt.seed, os.Getpid()))

	b, err := newBench(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(opt.dataDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if part >= 0 {
		runErr := b.run()
		if err := os.RemoveAll(opt.dataDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		fmt.Printf("%s\n", formatPart(b.record(runErr)))
		if runErr != nil || b.chk.failed.Load() > 0 {
			os.Exit(1)
		}
		return
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%d\n", opt.workload, opt.seed, seconds, trace)
	host, _ := json.Marshal(hostFingerprint(opt.dataDir))
	fmt.Fprintf(out, "host %s\n", host)
	out.Flush()

	var runErr error
	if parent {
		runErr = b.runParts(b.execPart)
	} else {
		runErr = b.run()
	}
	if err := os.RemoveAll(opt.dataDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if opt.trace {
		path := filepath.Join(root, fmt.Sprintf("spans-%s-seed%d.jsonl", opt.workload, opt.seed))
		if err := writeSpans(path, b.spanLogs()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		} else {
			fmt.Fprintf(out, "spans written to %s\n", path)
		}
	}
	res := b.result()
	b.report(out)
	line, _ := json.Marshal(res)
	fmt.Fprintf(out, "%s\n", line)
	out.Flush()
	if runErr != nil || !res.Correct {
		os.Exit(1)
	}
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func (b *bench) metrics() []metric {
	if b.opt.trace {
		return b.layerMetrics()
	}
	return b.endToEnd()
}

func (b *bench) result() result {
	attempted := b.attempted.Load() + b.calls(0) + b.calls(1)
	failed := b.chk.failed.Load()
	res := result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]resultMetric{}}
	for _, m := range b.metrics() {
		res.Metrics[m.name] = resultMetric{m.value, m.unit}
	}
	return res
}

// report prints every metric by name with its unit, the call latencies
// under their per-call names with their sample counts, and fail_ratio.
func (b *bench) report(out *bufio.Writer) {
	for _, m := range b.metrics() {
		fmt.Fprintf(out, "metric %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
	if !b.opt.trace {
		for _, m := range b.measuredTable() {
			fmt.Fprintf(out, "measured %-33s %14.4f %s\n", m.name, m.value, m.unit)
		}
		for i, r := range b.rounds {
			fmt.Fprintf(out, "round %d calibration_s %.4f setup_s %.4f op_p50_us %.4f throughput_ops_s %.1f drain_s %.4f heap_bytes_per_key %.1f\n",
				i, r.calibS, r.setupS, r.lat[b.w.opClass][0], float64(r.calls)/r.phaseS, r.drainS, ratio(r.heapBytes, float64(r.liveKeys)))
		}
	}
	res := b.result()
	fmt.Fprintf(out, "fail_ratio %.6g (%d failed of %d attempted)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
}

func (b *bench) spanLogs() []*spanLog {
	logs := []*spanLog{b.life.log}
	for _, c := range b.clients {
		logs = append(logs, c.log)
	}
	return logs
}

// hostFingerprint records what a result depends on besides the code.
func hostFingerprint(dataDir string) map[string]any {
	commit, modified := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		commit += "+modified"
	}
	return map[string]any{
		"schema":     2,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		// The WAL and the dumps share the run's data directory.
		"wal_dump_fs": filesystem(dataDir),
	}
}

// filesystem names the type of the filesystem holding path, from the
// longest matching mount point in /proc/self/mountinfo.
func filesystem(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		sep := -1
		for i, f := range fields {
			if f == "-" {
				sep = i
				break
			}
		}
		if sep < 0 || sep+1 >= len(fields) || len(fields) < 5 {
			continue
		}
		mnt := fields[4]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > best {
			best, fs = len(mnt), fields[sep+1]
		}
	}
	return fs
}
