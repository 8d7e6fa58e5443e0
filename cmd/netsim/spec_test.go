package main

// Tests for the extracted workload flag handling — every error path the
// CLI used to bury in os.Exit, plus the regressions this layer exists to
// prevent: explicit workload flags silently discarded, and a
// first-topology hotspot range check contradicting workload.Hotspot's
// documented modulo-group wrap.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"otisnet/internal/workload"
)

// flags builds a workloadFlags with the CLI defaults, marking the given
// names explicit (as flag.Visit would after the user spelled them).
func flags(explicit ...string) workloadFlags {
	wf := workloadFlags{
		HotGroup: 0, HotFrac: 0.3,
		BurstOn: 20, BurstOff: 60, BurstLow: 0.1,
		Period: 1000, Amplitude: 0.6, EpisodeOn: 400, EpisodeOff: 800, RateSigma: 0.35,
		Explicit: map[string]bool{},
	}
	for _, name := range explicit {
		wf.Explicit[name] = true
	}
	return wf
}

func writeEventTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ev.csv")
	if err := os.WriteFile(path, []byte("0,1,2\n2,3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWorkloadSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		wf   workloadFlags
		list string
		want string // substring of the error
	}{
		{"unknown kind", flags(), "gaussian", "gaussian"},
		{"empty list", flags(), " , ", "names no workloads"},
		{"hotfrac oob", func() workloadFlags { wf := flags(); wf.HotFrac = 1.5; return wf }(), "hotspot", "fraction"},
		{"hotgroup negative", func() workloadFlags { wf := flags(); wf.HotGroup = -2; return wf }(), "hotspot", "group"},
		{"burston oob", func() workloadFlags { wf := flags(); wf.BurstOn = 0.2; return wf }(), "bursty", "mean"},
		{"burstlow oob", func() workloadFlags { wf := flags(); wf.BurstLow = 2; return wf }(), "bursty", "factor"},
		{"trace without file", flags(), "trace", "-tracefile"},
		{"trace file unreadable", func() workloadFlags {
			wf := flags()
			wf.TraceFile = filepath.Join(t.TempDir(), "nope.csv")
			return wf
		}(), "trace", "nope.csv"},
		{"bad multiperiod", func() workloadFlags { wf := flags(); wf.Amplitude = 2; return wf }(), "multiperiod", "amplitude"},
		// Explicit flags no selected workload honors are errors, not noise.
		{"hotgroup unhonored", flags("hotgroup"), "uniform,bursty", "-hotgroup"},
		{"tracefile unhonored", flags("tracefile"), "hotspot", "-tracefile"},
		{"period unhonored", flags("period"), "bursty", "-period"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.wf.specs(c.list)
			if err == nil {
				t.Fatalf("specs(%q) accepted %+v", c.list, c.wf)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("specs(%q) error %q does not mention %q", c.list, err, c.want)
			}
		})
	}
}

func TestWorkloadSpecBuildsEveryKind(t *testing.T) {
	wf := flags("hotgroup", "hotfrac", "burston", "burstoff", "burstlow")
	wf.HotGroup = 7
	wf.TraceFile = writeEventTrace(t)
	specs, err := wf.specs("uniform,transpose,hotspot,bursty,trace,multiperiod")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Fatalf("got %d specs", len(specs))
	}
	hot := specs[2]
	if hot.HotGroup != 7 || hot.Fraction != 0.3 {
		t.Fatalf("hotspot spec dropped flag values: %+v", hot)
	}
	// Satellite 2: a large group index is legal everywhere — it wraps
	// modulo each topology's group count, so no per-topology range check.
	big := flags("hotgroup")
	big.HotGroup = 9999
	if _, err := big.specs("hotspot"); err != nil {
		t.Fatalf("large hot group rejected despite modulo semantics: %v", err)
	}
	tr := specs[4]
	if tr.Kind != workload.KindTrace || tr.TraceFP == "" || tr.TraceForm != workload.TraceEvents {
		t.Fatalf("trace spec not scanned: %+v", tr)
	}
	mp := specs[5]
	if mp.MeanOn != 20 || mp.MeanOff != 60 || mp.OffFactor != 0.1 || mp.Period != 1000 {
		t.Fatalf("multiperiod spec did not reuse burst flags: %+v", mp)
	}
}

func TestTraceRateOverride(t *testing.T) {
	event := workload.Spec{Kind: workload.KindTrace, TraceForm: workload.TraceEvents}
	rates := workload.Spec{Kind: workload.KindTrace, TraceForm: workload.TraceRates}
	uniform := workload.Spec{}

	if force, err := traceRateOverride([]workload.Spec{event}, false); err != nil || !force {
		t.Fatalf("event trace, default rate: force=%v err=%v, want force", force, err)
	}
	if _, err := traceRateOverride([]workload.Spec{event}, true); err == nil {
		t.Fatal("event trace accepted an explicit rate axis")
	}
	if _, err := traceRateOverride([]workload.Spec{event, uniform}, false); err == nil {
		t.Fatal("event trace accepted sharing a sweep with a rate-driven workload")
	}
	if force, err := traceRateOverride([]workload.Spec{rates, uniform}, false); err != nil || !force {
		t.Fatalf("rate trace, default rate: force=%v err=%v, want force", force, err)
	}
	if force, err := traceRateOverride([]workload.Spec{rates}, true); err != nil || force {
		t.Fatalf("rate trace with explicit rates: force=%v err=%v, want honored axis", force, err)
	}
	if force, err := traceRateOverride([]workload.Spec{uniform}, false); err != nil || force {
		t.Fatalf("no trace: force=%v err=%v, want untouched axis", force, err)
	}
}
