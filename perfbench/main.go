// Command perfbench is the benchmark of the netsim simulation stack. It
// drives the netsim binary exactly as users run it — single CLI runs,
// HTTP sweep jobs on `netsim serve`, and sharded jobs on `netsim serve`
// plus a `netsim work` fleet — and prints end-to-end metrics; with
// -trace 1 it repeats the workload in process and prints per-layer
// metrics instead. See README.md in this directory.
//
//	bash perfbench/run.sh --workload cli-light --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload name")
	seed := fset.Int64("seed", 1, "workload seed; every op's scenario seed derives from it")
	seconds := fset.Float64("seconds", 10, "measurement window in seconds")
	trace := fset.Int("trace", 0, "1: traced in-process run printing per-layer metrics")
	bin := fset.String("netsim", "", "netsim binary built from this checkout")
	root := fset.String("root", ".", "checkout root")
	work := fset.String("workdir", ".bench_build", "scratch directory inside the checkout")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || (*trace == 0 && *bin == "") {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q: %v)\n", *name, err)
		return 2
	}
	scratch, err := filepath.Abs(filepath.Join(*work, "run", fmt.Sprintf("%s-trace%d", w.name, *trace)))
	if err == nil {
		os.RemoveAll(scratch)
		err = os.MkdirAll(scratch, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	e := env{bin: *bin, scratch: scratch, seed: *seed, seconds: *seconds, log: stderr}

	var r *e2eRun
	if *trace == 1 {
		r, err = runTraced(w, e)
	} else {
		r, err = runE2E(w, e)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	ctx := map[string]any{
		"workload":   w.name,
		"seed":       *seed,
		"trace":      *trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"revision":   revision(*root),
		"fail_ratio": ratio(float64(r.failed), float64(r.attempted)),
	}
	if *trace == 0 {
		ctx["ops"] = len(r.latencies)
		if v, ok := p90(r.latencies); ok {
			ctx["op_p90_ms"] = v
		}
	}
	enc := json.NewEncoder(stdout)
	enc.Encode(map[string]any{"context": ctx})
	enc.Encode(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	return 0
}

// revision names the code under test: the git commit when the checkout is
// a repository, else a digest of the program's sources.
func revision(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range append(files, filepath.Join(root, "go.mod")) {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
