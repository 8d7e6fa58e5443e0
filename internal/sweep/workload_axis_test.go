package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
	"otisnet/internal/workload"
)

func skTopology() Topology {
	return Topology{
		Name:      "SK(6,3,2)",
		Topo:      sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph()),
		GroupSize: 6,
	}
}

// TestWorkloadAxisZeroSpecMatchesLegacySweep pins the acceptance criterion
// that threading the workload axis changed nothing for existing grids: an
// explicit uniform workload axis reproduces the axis-free grid bit for bit,
// and both match a direct sequential sim.Run.
func TestWorkloadAxisZeroSpecMatchesLegacySweep(t *testing.T) {
	topo := skTopology()
	base := Grid{Topologies: []Topology{topo}, Rates: []float64{0.2}, Seeds: []int64{1, 2}, Slots: 300, Drain: 300}
	withAxis := base
	withAxis.Workloads = []workload.Spec{{}}
	a := Runner{Workers: 3}.RunGrid(base)
	b := Runner{Workers: 2}.RunGrid(withAxis)
	if len(a) != len(b) {
		t.Fatalf("point counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Metrics != b[i].Metrics {
			t.Fatalf("uniform workload axis diverged from legacy grid at point %d:\n%v\n%v",
				i, a[i].Metrics, b[i].Metrics)
		}
		seq := sim.Run(topo.Topo, sim.UniformTraffic{Rate: 0.2}, 300, 300, a[i].Scenario.Config())
		if a[i].Metrics != seq {
			t.Fatalf("sweep point %d diverged from sequential sim.Run", i)
		}
	}
}

func TestWorkloadAxisCrossesGrid(t *testing.T) {
	specs := []workload.Spec{
		{},
		{Kind: workload.KindTranspose},
		{Kind: workload.KindHotspot, HotGroup: 1, Fraction: 0.5},
		{Kind: workload.KindBursty, MeanOn: 20, MeanOff: 40},
	}
	g := Grid{Topologies: []Topology{skTopology()}, Rates: []float64{0.1}, Seeds: []int64{1, 2}, Slots: 200, Drain: 200, Workloads: specs}
	pts := g.Points()
	if len(pts) != len(specs)*2 {
		t.Fatalf("expected %d scenarios, got %d", len(specs)*2, len(pts))
	}
	curve := Aggregate(Runner{}.Run(pts))
	if len(curve) != len(specs) {
		t.Fatalf("expected %d curve points (one per workload), got %d", len(specs), len(curve))
	}
	for i, p := range curve {
		if p.Workload != specs[i] {
			t.Errorf("curve point %d keyed by %+v, want %+v", i, p.Workload, specs[i])
		}
		if p.Seeds != 2 {
			t.Errorf("curve point %d aggregated %d seeds, want 2", i, p.Seeds)
		}
	}
}

func TestWorkloadScenarioLabels(t *testing.T) {
	s := Scenario{
		Topology: Topology{Name: "SK"},
		Workload: workload.Spec{Kind: workload.KindTranspose},
		Rate:     0.2, Seed: 1, Wavelengths: 1,
	}
	if got := s.Label(); !strings.Contains(got, "SK/transpose") {
		t.Errorf("label %q should carry the workload name", got)
	}
}

func TestWorkloadColumnInOutputs(t *testing.T) {
	g := Grid{
		Topologies: []Topology{skTopology()},
		Rates:      []float64{0.1},
		Seeds:      []int64{1},
		Slots:      100,
		Workloads:  []workload.Spec{{Kind: workload.KindHotspot, HotGroup: 3, Fraction: 0.5}},
	}
	results := Runner{}.RunGrid(g)

	var csvRaw bytes.Buffer
	if err := WriteResultsCSV(&csvRaw, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvRaw.String(), "workload") || !strings.Contains(csvRaw.String(), "hotspot(g3,0.5)") {
		t.Errorf("raw CSV missing workload column or label:\n%s", csvRaw.String())
	}

	var csvCurve bytes.Buffer
	if err := WriteCurveCSV(&csvCurve, Aggregate(results)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvCurve.String(), "hotspot(g3,0.5)") {
		t.Errorf("curve CSV missing workload label:\n%s", csvCurve.String())
	}

	var jsonRaw bytes.Buffer
	if err := WriteResultsJSON(&jsonRaw, results); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(jsonRaw.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if rows[0]["workload"] != "hotspot(g3,0.5)" {
		t.Errorf("raw JSON workload field = %v", rows[0]["workload"])
	}

	var jsonCurve bytes.Buffer
	if err := WriteCurveJSON(&jsonCurve, Aggregate(results)); err != nil {
		t.Fatal(err)
	}
	var cpts []map[string]any
	if err := json.Unmarshal(jsonCurve.Bytes(), &cpts); err != nil {
		t.Fatal(err)
	}
	if cpts[0]["workload"] != "hotspot(g3,0.5)" {
		t.Errorf("curve JSON workload field = %v", cpts[0]["workload"])
	}
}
