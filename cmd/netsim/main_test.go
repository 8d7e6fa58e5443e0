package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for netsim: with NETSIM_TEST_ARGS
// set, it runs main on those (space-separated) arguments instead of the
// tests, so a test can check exit statuses and output of a real process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("NETSIM_TEST_ARGS"); ok {
		os.Args = append([]string{"netsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// netsim re-executes the test binary as netsim with args and returns its
// stdout, stderr and exit status.
func netsim(t *testing.T, args string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "NETSIM_TEST_ARGS="+args)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		status = exit.ExitCode()
	case err != nil:
		t.Fatalf("netsim %s: %v", args, err)
	}
	return out.String(), errOut.String(), status
}

// TestCLIContract pins the exit status and the error text of command
// lines netsim must refuse before simulating anything.
func TestCLIContract(t *testing.T) {
	const sk = "-net sk -s 3 -d 2 -k 2 -slots 50 "
	cases := []struct {
		name   string
		args   string
		status int
		stderr string
	}{
		// deBruijn(2,16) has N = 65536: refused before any table is built.
		{"oversized topology", "-net debruijn -d 2 -k 16 -slots 10 -drain 10", 2, "N=65536 nodes, over the limit of 32768"},
		{"single-run rate above 1", sk + "-rate 1.7", 2, `bad rate "1.7" (want a probability in [0,1])`},
		{"single-run negative rate", sk + "-rate -0.5", 2, `bad rate "-0.5" (want a probability in [0,1])`},
		{"sweep rate above 1", sk + "-sweep -rate 1.7", 2, `bad rate "1.7" (want a probability in [0,1])`},
		{"sweep rates above 1", sk + "-sweep -rates 0.1,1.7", 2, `bad rate "1.7" (want a probability in [0,1])`},
		{"saturate with rate", sk + "-saturate -rate 0.9", 2, "-rate does not apply to -saturate"},
		{"saturate with drain", sk + "-saturate -drain 5", 2, "-drain does not apply to -saturate"},
		{"sweep saturate with rate", sk + "-sweep -saturate -rate 0.9", 2, "-rate does not apply to -saturate"},
		{"sweep saturate with drain", sk + "-sweep -saturate -drain 7", 2, "-drain does not apply to -saturate"},
		{"saturate with workload", sk + "-saturate -workload hotspot", 2, "-workload does not apply to -saturate"},
		// The legacy traffic flags are gone: -workload names every pattern.
		{"retired -traffic", sk + "-traffic uniform", 2, "flag provided but not defined: -traffic"},
		{"retired -burst", sk + "-burst 500", 2, "flag provided but not defined: -burst"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, stderr, status := netsim(t, c.args)
			if status != c.status {
				t.Fatalf("netsim %s exited %d, want %d; stderr:\n%s", c.args, status, c.status, stderr)
			}
			if !strings.Contains(stderr, c.stderr) {
				t.Fatalf("netsim %s: stderr does not contain %q:\n%s", c.args, c.stderr, stderr)
			}
		})
	}
}

// TestSingleAndSweepSaturateAgree checks that a single-run -saturate and
// the same command line with -sweep run one search and print one rate.
func TestSingleAndSweepSaturateAgree(t *testing.T) {
	const args = "-net sk -s 3 -d 2 -k 2 -deflect -wavelengths 2 -maxq 4 -slots 200 -saturate"
	single, stderr, status := netsim(t, args)
	if status != 0 {
		t.Fatalf("single run exited %d:\n%s", status, stderr)
	}
	m := regexp.MustCompile(`saturation rate ≈ ([0-9.]+) `).FindStringSubmatch(single)
	if m == nil {
		t.Fatalf("no saturation rate in single-run output:\n%s", single)
	}
	swept, stderr, status := netsim(t, args+" -sweep -format csv")
	if status != 0 {
		t.Fatalf("sweep exited %d:\n%s", status, stderr)
	}
	lines := strings.Split(strings.TrimSpace(swept), "\n")
	if len(lines) != 2 {
		t.Fatalf("sweep printed %d lines, want a header and one point:\n%s", len(lines), swept)
	}
	fields := strings.Split(lines[1], ",")
	if got := fields[len(fields)-1]; got != m[1] {
		t.Fatalf("-sweep -saturate found %s, the single run %s", got, m[1])
	}
}
