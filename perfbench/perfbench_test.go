package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestP90NeedsAHundredSamples(t *testing.T) {
	xs := make([]float64, minP90Samples-1)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := p90(xs); ok {
		t.Fatalf("p90 reported over %d samples", len(xs))
	}
	xs = append(xs, 100)
	v, ok := p90(xs)
	if !ok {
		t.Fatalf("p90 withheld over %d samples", len(xs))
	}
	if want := 90.1; v < want-1e-9 || v > want+1e-9 {
		t.Fatalf("p90 of 1..100 = %v, want %v", v, want)
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range []string{"setup_s", "sim.step_ns_per_slot", "coord.acquire-ms", "9lives"} {
		if !validName(name) {
			t.Errorf("validName(%q) = false", name)
		}
	}
	for _, name := range []string{"", "_x", ".x", "a b", "a/b", "lat%", strings.Repeat("a", 65)} {
		if validName(name) {
			t.Errorf("validName(%q) = true", name)
		}
	}
	for _, unit := range []string{"ms", "1/s", "%", "MiB", "count"} {
		if !validUnit(unit) {
			t.Errorf("validUnit(%q) = false", unit)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("metrics.set accepted an invalid name")
		}
	}()
	metrics{}.set("bad name", "ms", 1)
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 70},
		{"overlapping count once", []span{{Start: 10, End: 40}, {Start: 30, End: 60}}, 50},
		{"nested", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"clipped to the parent", []span{{Start: -10, End: 10}, {Start: 90, End: 130}}, 80},
		{"outside", []span{{Start: 100, End: 120}}, 100},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
	rec := newRecorder()
	p := rec.begin("parent", -1, 0)
	rec.end(rec.begin("child", p, 0))
	rec.end(p)
	st := summarize(rec.snapshot())
	if len(st.self["parent"]) != 1 || st.self["parent"][0] > st.dur["parent"][0] {
		t.Fatalf("summarize: self %v exceeds duration %v", st.self["parent"], st.dur["parent"])
	}
}

const cliOut = `SK(8,3,4) N=864 couplers=432  traffic=uniform rate=0.02 mode=store-and-forward
slots=20005 injected=345953 delivered=345950 dropped=0 backlog=3 thr=17.293/slot lat=4.59 hops=3.49 peakQ=12 defl=0
per-node throughput: 0.0200 msgs/slot/node
`

func TestCLICheck(t *testing.T) {
	r, err := parseCLI(cliOut)
	if err != nil {
		t.Fatal(err)
	}
	if r.nodes != 864 || r.slots != 20005 || r.latency != 4.59 {
		t.Fatalf("parsed %+v", r)
	}
	tampered := strings.Replace(cliOut, "delivered=345950", "delivered=345951", 1)
	if _, err := parseCLI(tampered); err == nil {
		t.Fatal("a CLI line that loses a message passed the check")
	}
	if _, err := parseCLI("netsim: unknown topology\n"); err == nil {
		t.Fatal("output without a metrics line passed the check")
	}
}

func TestStreamCheck(t *testing.T) {
	spec := gridFor(kindServe, 3, 0)
	payload := gridPayload(spec)
	const stream = `{"index":1,"cached":false,"topology":"POPS(9,8) N=72 couplers=64","rate":0.1,"mode":"store-and-forward","seed":5,"slots":2001,"injected":100,"delivered":90,"dropped":0,"backlog":10}
{"index":0,"cached":false,"topology":"POPS(9,8) N=72 couplers=64","rate":0.1,"mode":"store-and-forward","seed":4,"slots":2001,"injected":100,"delivered":100,"dropped":0,"backlog":0}
`
	rows, err := parseStream([]byte(stream))
	if err != nil {
		t.Fatal(err)
	}
	book := newRowBook()
	if err := book.check(rows, 2); err != nil {
		t.Fatalf("clean stream rejected: %v", err)
	}
	// The next job answers seed 5 from the cache: it must match.
	cached := rows[:1:1]
	cached[0].Cached, cached[0].Index = true, 0
	if err := book.check(cached, 1); err != nil {
		t.Fatalf("faithful cached row rejected: %v", err)
	}
	tampered := []streamRow{cached[0]}
	tampered[0].AvgLatency += 0.5
	if err := book.check(tampered, 1); err == nil {
		t.Fatal("a cached row that differs from its computed row passed")
	}
	lossy := []streamRow{rows[1]}
	lossy[0].Index, lossy[0].Seed, lossy[0].Delivered = 0, 9, 99
	if err := newRowBook().check(lossy, 1); err == nil {
		t.Fatal("a row that loses a message passed")
	}
	orphan := []streamRow{rows[1]}
	orphan[0].Index, orphan[0].Cached = 0, true
	if err := newRowBook().check(orphan, 1); err == nil {
		t.Fatal("a cached row with no computed counterpart passed")
	}
	if err := newRowBook().check(rows[:1], 2); err == nil {
		t.Fatal("a stream missing a point passed")
	}
	if gridPoints(spec) != 60 || len(payload) == 0 {
		t.Fatalf("grid has %d points", gridPoints(spec))
	}
}

func TestCurveCheckCatchesTampering(t *testing.T) {
	spec := gridFor(kindFleet, 3, 0)
	spec.Rates, spec.Modes, spec.Slots, spec.Drain = []float64{0.1}, []string{"sf"}, 200, 100
	payload := gridPayload(spec)
	curve, err := inProcessCurve(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCurve(payload, curve); err != nil {
		t.Fatalf("in-process curve rejected: %v", err)
	}
	var pts []map[string]any
	if err := json.Unmarshal(curve, &pts); err != nil || len(pts) != 3 {
		t.Fatalf("curve has %d points (%v)", len(pts), err)
	}
	tampered := []byte(strings.Replace(string(curve), `"seeds": 2`, `"seeds": 3`, 1))
	if string(tampered) == string(curve) {
		t.Fatal("tampering found nothing to change")
	}
	if err := checkCurve(payload, tampered); err == nil {
		t.Fatal("a tampered curve passed")
	}
}

func TestSeedsDerive(t *testing.T) {
	a, b := deriveSeed(1, 1, 1), deriveSeed(1, 1, 2)
	if a == b || a != deriveSeed(1, 1, 1) || deriveSeed(2, 1, 1) == a {
		t.Fatal("derived seeds are not a deterministic function of (seed, stream, index)")
	}
	for i := 0; i < 1000; i++ {
		if s := deriveSeed(int64(i), 2, 0); s < 1 || s > 1<<31 {
			t.Fatalf("seed %d out of range", s)
		}
	}
	o1 := gridFor(kindServe, 9, 1).Seeds
	o2 := gridFor(kindServe, 9, 2).Seeds
	if o1[1] != o2[0] {
		t.Fatalf("serve-overlap jobs %v and %v do not share a seed", o1, o2)
	}
	f1 := gridFor(kindFleet, 9, 1).Seeds
	f2 := gridFor(kindFleet, 9, 2).Seeds
	if f1[1] >= f2[0] {
		t.Fatalf("fleet-sharded jobs %v and %v share seeds", f1, f2)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the workload table and
// the metrics the runs print.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the table %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the table %q", i, w.Name, workloads[i].name)
		}
	}
	seen := map[string]bool{}
	for _, m := range b.EndToEnd {
		if !validName(m.Name) || !validUnit(m.Unit) || seen[m.Name] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bad end-to-end metric %+v", m)
		}
		seen[m.Name] = true
	}
	for _, m := range b.PerLayer {
		if !validName(m.Name) || !validUnit(m.Unit) || seen[m.Name] || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("bad per-layer metric %+v", m)
		}
		if lm, ok := layerMap[m.Name]; !ok || lm.unit != m.Unit || lm.better != m.Better {
			t.Errorf("per-layer metric %+v does not match its layerMap entry %+v", m, lm)
		}
		seen[m.Name] = true
	}
	// The traced run's metric set must be exactly the per-layer list.
	tr := &tracer{w: workloads[0]}
	got := tr.layerMetrics(summarize(nil), obsDelta{}, obsDelta{}, 1, 0)
	if len(got) != len(b.PerLayer) {
		t.Errorf("traced run prints %d metrics, BENCHMARK.json lists %d", len(got), len(b.PerLayer))
	}
	for _, m := range b.PerLayer {
		if got[m.Name].Unit != m.Unit {
			t.Errorf("%s: traced run prints unit %q, BENCHMARK.json %q", m.Name, got[m.Name].Unit, m.Unit)
		}
	}
}
