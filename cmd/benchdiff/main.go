// Command benchdiff prints the benchmark trajectory across the repo's
// BENCH_<n>.json snapshots (one per PR, written by scripts/bench.sh) and
// guards the headline speedups: it exits non-zero when the compiled-engine
// speedup over the legacy baseline (speedup_vs_legacy of
// BenchmarkT7SimThroughput) or the warm-cache speedup regresses by more
// than the threshold between the last two snapshots. Raw ns/op columns
// are informational only — snapshots come from different machines and
// different benchtimes, so only same-file ratios are comparable.
//
//	go run ./cmd/benchdiff                 # all BENCH_*.json in the cwd
//	go run ./cmd/benchdiff BENCH_6.json BENCH_7.json
//	go run ./cmd/benchdiff -threshold 0.05
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// snapshot mirrors one BENCH_<n>.json file. Parsing is deliberately
// lenient — older snapshots predate the batched and warm-cache fields —
// so every field beyond pr/benchmarks is optional.
type snapshot struct {
	File       string `json:"-"`
	PR         int    `json:"pr"`
	Benchtime  string `json:"benchtime"`
	Benchmarks []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
	SpeedupVsLegacy  map[string]float64 `json:"speedup_vs_legacy"`
	WarmCacheSpeedup *float64           `json:"warm_cache_speedup"`
	BatchedSpeedup   *float64           `json:"batched_speedup"`
}

// ns returns the named benchmark's ns/op, or 0 when the snapshot lacks it.
func (s *snapshot) ns(name string) float64 {
	for _, b := range s.Benchmarks {
		if b.Name == name {
			return b.NsPerOp
		}
	}
	return 0
}

// t7Speedup returns the headline engine-vs-legacy speedup, or 0.
func (s *snapshot) t7Speedup() float64 {
	return s.SpeedupVsLegacy["BenchmarkT7SimThroughput"]
}

// warm returns the warm-cache speedup, or 0 when absent.
func (s *snapshot) warm() float64 {
	if s.WarmCacheSpeedup == nil {
		return 0
	}
	return *s.WarmCacheSpeedup
}

func main() {
	threshold := flag.Float64("threshold", 0.10, "fail when a guarded speedup drops by more than this fraction between the last two snapshots")
	flag.Parse()

	files := flag.Args()
	if len(files) == 0 {
		var err error
		files, err = filepath.Glob("BENCH_*.json")
		if err != nil || len(files) == 0 {
			fmt.Fprintln(os.Stderr, "benchdiff: no BENCH_*.json snapshots found (run scripts/bench.sh)")
			os.Exit(2)
		}
	}

	snaps := make([]*snapshot, 0, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		s := &snapshot{File: f}
		if err := json.Unmarshal(data, s); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", f, err)
			os.Exit(2)
		}
		snaps = append(snaps, s)
	}
	sort.Slice(snaps, func(a, b int) bool { return snaps[a].PR < snaps[b].PR })

	fmt.Printf("%-4s %-14s %-10s %12s %12s %9s %9s %8s\n",
		"pr", "file", "benchtime", "t7 ns/op", "grid ns/op", "t7 xlegacy", "warmcache", "batched")
	for _, s := range snaps {
		fmt.Printf("%-4d %-14s %-10s %12s %12s %9s %9s %8s\n",
			s.PR, s.File, s.Benchtime,
			fmtNs(s.ns("BenchmarkT7SimThroughput")), fmtNs(s.ns("BenchmarkSweepGrid")),
			fmtX(s.t7Speedup()), fmtX(s.warm()), fmtXPtr(s.BatchedSpeedup))
	}

	if len(snaps) < 2 {
		fmt.Println("\none snapshot: nothing to diff")
		return
	}
	prev, last := snaps[len(snaps)-2], snaps[len(snaps)-1]
	fmt.Printf("\nguard: %s -> %s (threshold %.0f%%)\n", prev.File, last.File, *threshold*100)
	failed := false
	failed = guard("t7_speedup", prev.t7Speedup(), last.t7Speedup(), *threshold) || failed
	failed = guard("warm_cache_speedup", prev.warm(), last.warm(), *threshold) || failed
	if failed {
		os.Exit(1)
	}
}

// guard prints and judges one speedup transition: a metric missing from
// either snapshot is skipped (older files predate some fields), anything
// else must not drop below (1 - threshold) of the previous value.
func guard(name string, prev, last, threshold float64) bool {
	if prev == 0 || last == 0 {
		fmt.Printf("  %-20s skipped (missing from a snapshot)\n", name)
		return false
	}
	change := last/prev - 1
	verdict := "ok"
	failed := false
	if change < -threshold {
		verdict = "REGRESSION"
		failed = true
	}
	fmt.Printf("  %-20s %.2fx -> %.2fx (%+.1f%%) %s\n", name, prev, last, change*100, verdict)
	return failed
}

func fmtNs(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}

func fmtX(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", v)
}

func fmtXPtr(v *float64) string {
	if v == nil {
		return "-"
	}
	return fmtX(*v)
}
