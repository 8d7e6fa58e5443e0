package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestOversizedTopologyExits2 runs netsim on deBruijn(2,16), N = 65536:
// the command must refuse it with exit status 2 and an error naming N
// and the limit, before building any table. The test binary re-executes
// itself as netsim with the arguments below.
func TestOversizedTopologyExits2(t *testing.T) {
	if os.Getenv("NETSIM_TEST_MAIN") == "1" {
		os.Args = []string{"netsim", "-net", "debruijn", "-d", "2", "-k", "16", "-slots", "10", "-drain", "10"}
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestOversizedTopologyExits2$")
	cmd.Env = append(os.Environ(), "NETSIM_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("netsim exited with %v, want status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "N=65536") || !strings.Contains(string(out), "32768") {
		t.Fatalf("error does not name N=65536 and the limit 32768:\n%s", out)
	}
}
