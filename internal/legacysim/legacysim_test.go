package legacysim_test

// Smoke tests for the frozen reference engine itself. legacysim is the
// oracle every compiled-engine equivalence suite and the differential fuzz
// target compare against, so the oracle needs two guards of its own: a
// golden scenario pinning its metrics to hard-coded values (the oracle
// must never drift — if it moves, every "bit-for-bit" claim silently moves
// with it), and inclusion in the -race CI step (these tests are what -race
// instruments). The golden values were produced by this engine under
// the geometric-skip uniform sampler (sim.AppendUniform; the engine code
// itself is unchanged since it was frozen) and are, by construction, also
// the compiled engine's values; TestGoldenScenariosMatchCompiledEngine
// closes that triangle.

import (
	"testing"

	"otisnet/internal/legacysim"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
)

// goldenCase pins one scenario: SK(3,2,2) under 0.3 uniform load, 300+300
// slots, across the three engine modes (plain store-and-forward,
// hot-potato deflection, WDM with a bounded queue).
type goldenCase struct {
	name string
	cfg  sim.Config
	want sim.Metrics
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "store-and-forward",
			cfg:  sim.Config{Seed: 42},
			want: sim.Metrics{Slots: 328, Injected: 1622, Delivered: 1622,
				TotalLatency: 16768, TotalHops: 2417, PeakQueue: 26},
		},
		{
			name: "deflection",
			cfg:  sim.Config{Seed: 43, Deflection: true},
			want: sim.Metrics{Slots: 379, Injected: 1631, Delivered: 1631, Deflections: 524,
				TotalLatency: 54162, TotalHops: 3230, PeakQueue: 66},
		},
		{
			name: "wdm-bounded",
			cfg:  sim.Config{Seed: 44, Wavelengths: 2, MaxQueue: 4},
			want: sim.Metrics{Slots: 303, Injected: 1676, Delivered: 1633, Dropped: 43,
				TotalLatency: 3653, TotalHops: 2431, PeakQueue: 4},
		},
	}
}

func goldenTopology() sim.Topology {
	return sim.NewStackTopology(stackkautz.New(3, 2, 2).StackGraph())
}

func TestGoldenScenarioMetricsPinned(t *testing.T) {
	topo := goldenTopology()
	for _, tc := range goldenCases() {
		got := legacysim.Run(topo, sim.UniformTraffic{Rate: 0.3}, 300, 300, tc.cfg)
		if got != tc.want {
			t.Errorf("%s: oracle metrics moved:\ngot  %#v\nwant %#v", tc.name, got, tc.want)
		}
	}
}

// TestGoldenScenariosMatchCompiledEngine closes the triangle: the pinned
// oracle values are also what the live compiled engine produces.
func TestGoldenScenariosMatchCompiledEngine(t *testing.T) {
	topo := goldenTopology()
	for _, tc := range goldenCases() {
		if got := sim.Run(topo, sim.UniformTraffic{Rate: 0.3}, 300, 300, tc.cfg); got != tc.want {
			t.Errorf("%s: compiled engine disagrees with the pinned oracle:\ngot  %#v\nwant %#v", tc.name, got, tc.want)
		}
	}
}

// TestEngineConservation smoke-checks the oracle's own bookkeeping
// invariant on a fresh run: injected == delivered + dropped + backlog.
func TestEngineConservation(t *testing.T) {
	topo := goldenTopology()
	e := legacysim.NewEngine(topo, sim.Config{Seed: 7})
	e.Inject(0, 5)
	e.Inject(3, 1)
	for s := 0; s < 50; s++ {
		e.Step()
	}
	m := e.Metrics()
	if m.Injected != 2 || m.Delivered+m.Dropped+m.Backlog != m.Injected {
		t.Fatalf("conservation violated: %+v", m)
	}
	if m.Delivered == 0 {
		t.Fatalf("nothing delivered after 50 slots: %+v", m)
	}
}
