// Command experiments runs the full reproduction campaign: every numeric
// claim and construction of the paper (experiments T1-T8 of DESIGN.md) is
// recomputed and printed as a markdown table, ready to paste into
// EXPERIMENTS.md. Figures F1-F12 are covered by cmd/figures and the test
// suite; this command covers the quantitative side.
//
//	go run ./cmd/experiments          # all experiments
//	go run ./cmd/experiments -only T6 # one experiment
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"otisnet/internal/analysis"
	"otisnet/internal/collective"
	"otisnet/internal/control"
	"otisnet/internal/core"
	"otisnet/internal/digraph"
	"otisnet/internal/faults"
	"otisnet/internal/imase"
	"otisnet/internal/kautz"
	"otisnet/internal/otis"
	"otisnet/internal/otisnets"
	"otisnet/internal/pops"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
	"otisnet/internal/sweep"
	"otisnet/internal/workload"
)

func main() {
	only := flag.String("only", "", "run a single experiment (T1..T12, T6D, T9D)")
	flag.Parse()
	experiments := []struct {
		id  string
		fn  func() string
		hdr string
	}{
		{"T1", t1, "Kautz graph parameters (§2.5)"},
		{"T2", t2, "Imase-Itoh diameter and Kautz equivalence (§2.6)"},
		{"T3", t3, "POPS parameters (§2.4)"},
		{"T4", t4, "stack-Kautz parameters (§2.7, §4.2)"},
		{"T5", t5, "design bills of materials (§4)"},
		{"T6", t6, "fault-tolerant routing: ≤ k+2 hops under ≤ d-1 faults (§2.5)"},
		{"T6D", t6d, "dynamic §2.5: live fault injection in the simulator vs RouteAvoiding"},
		{"T7", t7, "traffic simulation: SK vs POPS vs de Bruijn"},
		{"T8", t8, "OTIS viewed as an Imase-Itoh graph (conclusion)"},
		{"T9", t9, "collective communication: schedule lengths vs lower bounds"},
		{"T9D", t9d, "dynamic T9: collective schedules replayed through the live engine"},
		{"T10", t10, "distributed control: TDMA frame lengths"},
		{"T11", t11, "WDM extension: wavelengths vs saturated throughput"},
		{"T12", t12, "cost model and OTIS-based networks of [24]"},
	}
	ran := false
	for _, e := range experiments {
		if *only != "" && e.id != *only {
			continue
		}
		ran = true
		fmt.Printf("## %s — %s\n\n%s\n", e.id, e.hdr, e.fn())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: unknown id %q\n", *only)
		os.Exit(2)
	}
}

func t1() string {
	var b strings.Builder
	b.WriteString("| d | k | N = d^{k-1}(d+1) | degree | diameter | Eulerian | Hamiltonian |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, p := range []struct{ d, k int }{{2, 1}, {2, 2}, {2, 3}, {2, 4}, {3, 2}, {3, 3}, {4, 2}, {4, 3}, {5, 2}} {
		kg := kautz.New(p.d, p.k)
		g := kg.Digraph()
		ham := "-"
		if kg.N() <= 40 {
			ham = fmt.Sprint(g.HamiltonianCycle() != nil)
		}
		fmt.Fprintf(&b, "| %d | %d | %d | %d | %d | %v | %s |\n",
			p.d, p.k, kg.N(), g.MaxOutDegree(), g.Diameter(), g.IsEulerian(), ham)
	}
	fmt.Fprintf(&b, "\nPaper erratum: §2.5 says \"KG(5,4) has N = 3750 nodes\"; the formula gives %d (3750 is KG(5,5) = %d).\n",
		kautz.N(5, 4), kautz.N(5, 5))
	return b.String()
}

func t2() string {
	var b strings.Builder
	b.WriteString("| d | n | BFS diameter | ⌈log_d n⌉ | bound holds | Kautz order? |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, p := range []struct{ d, n int }{{2, 6}, {2, 8}, {2, 12}, {3, 12}, {3, 20}, {3, 36}, {4, 17}, {4, 20}, {5, 30}} {
		ii := imase.New(p.d, p.n)
		diam := ii.Digraph().Diameter()
		bound := imase.DiameterBound(p.d, p.n)
		kStr := "no"
		if k, ok := imase.KautzOrder(p.d, p.n); ok {
			iso := "iso NOT verified"
			if _, isK := ii.IsKautz(); isK {
				iso = "≅ verified"
			}
			kStr = fmt.Sprintf("KG(%d,%d) %s", p.d, k, iso)
		}
		fmt.Fprintf(&b, "| %d | %d | %d | %d | %v | %s |\n",
			p.d, p.n, diam, bound, diam <= bound, kStr)
	}
	return b.String()
}

func t3() string {
	var b strings.Builder
	b.WriteString("| t | g | N = tg | couplers = g² | coupler degree | hop diameter |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, p := range []struct{ t, g int }{{4, 2}, {8, 4}, {16, 8}, {32, 8}, {9, 12}} {
		pn := pops.New(p.t, p.g)
		fmt.Fprintf(&b, "| %d | %d | %d | %d | %d | %d |\n",
			p.t, p.g, pn.N(), pn.Couplers(), p.t, pn.StackGraph().Diameter())
	}
	return b.String()
}

func t4() string {
	var b strings.Builder
	b.WriteString("| s | d | k | N | groups | couplers | node degree | diameter |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, p := range []struct{ s, d, k int }{{6, 3, 2}, {2, 2, 2}, {4, 2, 3}, {8, 3, 3}, {16, 4, 2}} {
		n := stackkautz.New(p.s, p.d, p.k)
		fmt.Fprintf(&b, "| %d | %d | %d | %d | %d | %d | %d | %d |\n",
			p.s, p.d, p.k, n.N(), n.Groups(), n.Couplers(), n.Degree(), n.Diameter())
	}
	return b.String()
}

func t5() string {
	var b strings.Builder
	for _, d := range []*core.Design{
		core.DesignPOPS(4, 2),
		core.DesignStackKautz(6, 3, 2),
		core.DesignStackKautz(4, 2, 3),
		core.DesignStackImase(4, 3, 20),
	} {
		status := "verified"
		if err := d.Verify(); err != nil {
			status = "FAILED: " + err.Error()
		}
		fmt.Fprintf(&b, "%s [%s]\n", d.BOMSummary(), status)
	}
	return b.String()
}

func t6() string {
	var b strings.Builder
	b.WriteString("| d | k | trials | survived | max hops | k+2 | label-family hit rate |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, p := range []struct{ d, k int }{{2, 2}, {2, 3}, {3, 2}, {3, 3}, {4, 2}} {
		kg := kautz.New(p.d, p.k)
		rng := rand.New(rand.NewSource(int64(17*p.d + p.k)))
		trials, survived, maxHops, familyHits := 0, 0, 0, 0
		for i := 0; i < 500; i++ {
			u, v := rng.Intn(kg.N()), rng.Intn(kg.N())
			if u == v {
				continue
			}
			faulty := map[int]bool{}
			for len(faulty) < p.d-1 {
				f := rng.Intn(kg.N())
				if f != u && f != v {
					faulty[f] = true
				}
			}
			trials++
			path, viaFamily := kg.RouteAvoiding(kg.LabelOf(u), kg.LabelOf(v),
				func(w kautz.Label) bool { return faulty[kg.Index(w)] })
			if path == nil {
				continue
			}
			survived++
			if viaFamily {
				familyHits++
			}
			if h := len(path) - 1; h > maxHops {
				maxHops = h
			}
		}
		fmt.Fprintf(&b, "| %d | %d | %d | %d | %d | %d | %.1f%% |\n",
			p.d, p.k, trials, survived, maxHops, p.k+2,
			100*float64(familyHits)/float64(trials))
	}
	return b.String()
}

// t6d validates the §2.5 claim dynamically: whole groups of SK(6,3,2) fail
// mid-run inside the live simulator, which reroutes on the surviving
// structure; every message injected after the failures and delivered
// between surviving groups must achieve exactly the path length
// kautz.RouteAvoiding computes for its group pair, staying ≤ k+2 for up to
// d-1 faults. The f = d row goes beyond the paper's guarantee.
func t6d() string {
	const s, d, k = 6, 3, 2
	const failSlot, slots, drain = 100, 1200, 2000
	nw := stackkautz.New(s, d, k)
	kg := nw.Kautz()
	base := sim.NewStackTopology(nw.StackGraph())

	var b strings.Builder
	fmt.Fprintf(&b, "SK(%d,%d,%d), uniform rate 0.10, whole-group failures at slot %d; ", s, d, k, failSlot)
	b.WriteString("post-fault deliveries between surviving groups are cross-checked against kautz.RouteAvoiding:\n\n")
	b.WriteString("| group faults | delivered | checked | max hops | k+2 | = RouteAvoiding | throughput/slot | lost+unroutable |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	// One fault wrapper and one compiled engine serve every fault row:
	// SetPlan swaps the failure schedule and Reset rewinds the engine, so
	// each row runs exactly as a freshly built engine would without
	// recompiling the topology snapshot.
	ft := faults.Wrap(base, faults.FixedNodes(failSlot))
	e := sim.NewEngine(ft, sim.Config{Seed: 11})
	for f := 0; f <= d; f++ {
		groupRng := rand.New(rand.NewSource(7))
		faulty := map[int]bool{}
		var nodes []int
		for len(faulty) < f {
			g := groupRng.Intn(kg.N())
			if faulty[g] {
				continue
			}
			faulty[g] = true
			for m := 0; m < s; m++ {
				nodes = append(nodes, g*s+m)
			}
		}
		ft.SetPlan(faults.FixedNodes(failSlot, nodes...))
		e.Reset(sim.Config{Seed: 11})
		isFaulty := func(w kautz.Label) bool { return faulty[kg.Index(w)] }
		checked, matches, maxHops := 0, 0, 0
		e.OnDeliver = func(msg sim.Message, _ int) {
			sg, dg := msg.Src/s, msg.Dst/s
			if msg.Born < failSlot || faulty[sg] || faulty[dg] {
				return
			}
			if msg.Hops > maxHops {
				maxHops = msg.Hops
			}
			want := 1 // intra-group loop coupler
			if sg != dg {
				path, _ := kg.RouteAvoiding(kg.LabelOf(sg), kg.LabelOf(dg), isFaulty)
				if path == nil {
					return // group pair cut off (possible beyond d-1 faults)
				}
				want = len(path) - 1
			}
			checked++
			if msg.Hops == want {
				matches++
			}
		}
		rng := rand.New(rand.NewSource(13))
		var buf []sim.Injection
		for slot := 0; slot < slots; slot++ {
			buf = (sim.UniformTraffic{Rate: 0.1}).Generate(buf[:0], slot, base.Nodes(), rng)
			for _, inj := range buf {
				e.Inject(inj.Src, inj.Dst)
			}
			e.Step()
		}
		for slot := 0; slot < drain && e.Backlog() > 0; slot++ {
			e.Step()
		}
		m := e.Metrics()
		fmt.Fprintf(&b, "| %d | %d | %d | %d | %d | %d/%d | %.3f | %d |\n",
			f, m.Delivered, checked, maxHops, k+2, matches, checked,
			m.Throughput(), m.LostToFaults+m.Unroutable)
	}
	return b.String()
}

func t7() string {
	var b strings.Builder
	b.WriteString("comparable scale: SK(6,3,2) N=72 | POPS(9,8) N=72 | deBruijn(3,4) N=81 (point-to-point)\n\n")
	b.WriteString("| network | traffic | rate | throughput/slot | avg latency | avg hops | per-node thr |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	cands := sweep.ComparableScaleTrio()
	// Assemble the whole campaign as one scenario list (rows in table
	// order, each with its display label) and fan it across the sweep
	// worker pool; every point matches a sequential sim.Run bit for bit.
	var points []sweep.Scenario
	var labels []string
	for _, rate := range []float64{0.05, 0.2, 0.5} {
		for _, c := range cands {
			points = append(points, sweep.Scenario{
				Topology: c, Rate: rate, Seed: 42,
				Slots: 2000, Drain: 4000,
			})
			labels = append(labels, c.Name)
		}
	}
	for _, c := range cands {
		points = append(points, sweep.Scenario{
			Topology: c, Rate: 0.2, Seed: 42,
			Workload: workload.Spec{Kind: workload.KindHotspot, HotGroup: 0, Fraction: 0.3},
			Slots:    2000, Drain: 6000,
		})
		labels = append(labels, c.Name)
	}
	// Deflection ablation on SK: rows carry the routing mode.
	for _, mode := range []sweep.Mode{sweep.StoreAndForward, sweep.Deflection} {
		points = append(points, sweep.Scenario{
			Topology: cands[0], Rate: 0.5, Seed: 42,
			Mode: mode, Slots: 2000, Drain: 4000,
		})
		labels = append(labels, fmt.Sprintf("%s %s", cands[0].Name, mode))
	}
	results := sweep.Runner{}.Run(points)
	for i, r := range results {
		s, m := r.Scenario, r.Metrics
		fmt.Fprintf(&b, "| %s | %s | %.2f | %.3f | %.2f | %.2f | %.4f |\n",
			labels[i], s.Workload.Label(), s.Rate, m.Throughput(), m.AvgLatency(), m.AvgHops(),
			m.Throughput()/float64(s.Topology.Topo.Nodes()))
	}
	return b.String()
}

func t8() string {
	var b strings.Builder
	b.WriteString("| OTIS(G,T) | viewed as | Prop. 1 verifies | II ≅ known graph |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, p := range []struct{ g, t int }{{3, 6}, {3, 12}, {2, 6}, {4, 4}, {2, 12}} {
		o := otis.New(p.g, p.t)
		d, n := o.AsImaseItoh()
		verr := otis.NewImaseRealization(d, n).Verify()
		known := "-"
		if k, ok := imase.KautzOrder(d, n); ok {
			if digraph.Isomorphic(imase.New(d, n).Digraph(), kautz.New(d, k).Digraph()) {
				known = fmt.Sprintf("KG(%d,%d)", d, k)
			}
		} else if d == n {
			known = fmt.Sprintf("K+%d", d)
		}
		fmt.Fprintf(&b, "| %v | II(%d,%d) | %v | %s |\n", o, d, n, verr == nil, known)
	}
	return b.String()
}

func t9() string {
	var b strings.Builder
	b.WriteString("| network | collective | slots | lower bound | transmissions |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, pr := range []struct{ t, g int }{{4, 2}, {4, 4}, {8, 8}, {2, 6}} {
		p := pops.New(pr.t, pr.g)
		src := p.NodeID(0, 0)
		bc := collective.POPSBroadcast(p, src)
		if bc.Validate(p.StackGraph()) != nil || !bc.Execute(p.StackGraph()).BroadcastComplete(src) {
			return "BROADCAST SCHEDULE INVALID\n"
		}
		fmt.Fprintf(&b, "| POPS(%d,%d) | broadcast | %d | %d | %d |\n",
			pr.t, pr.g, bc.Slots(), collective.BroadcastLowerBound(p.StackGraph(), src), bc.Transmissions())
		gs := collective.POPSGossip(p)
		if gs.Validate(p.StackGraph()) != nil || !gs.Execute(p.StackGraph()).GossipComplete() {
			return "GOSSIP SCHEDULE INVALID\n"
		}
		fmt.Fprintf(&b, "| POPS(%d,%d) | gossip | %d | %d | %d |\n",
			pr.t, pr.g, gs.Slots(), collective.GossipLowerBound(p.StackGraph()), gs.Transmissions())
	}
	for _, pr := range []struct{ s, d, k int }{{6, 3, 2}, {2, 2, 3}, {8, 3, 3}} {
		n := stackkautz.New(pr.s, pr.d, pr.k)
		src := stackkautz.Address{Group: n.Kautz().LabelOf(0), Member: 0}
		bc := collective.SKBroadcast(n, src)
		if bc.Validate(n.StackGraph()) != nil || !bc.Execute(n.StackGraph()).BroadcastComplete(n.NodeID(src)) {
			return "SK BROADCAST SCHEDULE INVALID\n"
		}
		fmt.Fprintf(&b, "| SK(%d,%d,%d) | broadcast | %d | %d | %d |\n",
			pr.s, pr.d, pr.k, bc.Slots(),
			collective.BroadcastLowerBound(n.StackGraph(), n.NodeID(src)), bc.Transmissions())
	}
	return b.String()
}

// t9d is the dynamic counterpart of T9: instead of checking collective
// schedules statically (Schedule.Execute), it expands each round into
// unicast messages and replays them through the live engine, where they
// face real coupler arbitration. Every round must deliver exactly its
// intended receptions, the round count must meet the information-theoretic
// lower bound, and the dissemination must complete from the deliveries the
// engine actually made.
func t9d() string {
	var b strings.Builder
	b.WriteString("collective schedules replayed through the live engine (unicast expansion, per-round drain):\n\n")
	b.WriteString("| network | collective | rounds | lower bound | engine slots | delivered | per-round complete | dissemination |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	row := func(name, kind string, res *workload.ReplayResult, err error) string {
		if err != nil {
			return fmt.Sprintf("| %s | %s | REPLAY FAILED: %v | | | | | |\n", name, kind, err)
		}
		complete := "yes"
		if !res.Complete {
			complete = "NO"
		}
		return fmt.Sprintf("| %s | %s | %d | %d | %d | %d/%d | yes | %s |\n",
			name, kind, len(res.Rounds), res.LowerBound, res.Slots,
			res.Delivered, res.Injected, complete)
	}
	// SK(6,3,2) broadcast — the acceptance scenario: every round's delivery
	// count meets the schedule's intent on the live engine.
	nw := stackkautz.New(6, 3, 2)
	src := stackkautz.Address{Group: nw.Kautz().LabelOf(0), Member: 0}
	bres, err := workload.ReplayBroadcast(nw.StackGraph(), collective.SKBroadcast(nw, src), nw.NodeID(src), sim.Config{Seed: 9})
	b.WriteString(row("SK(6,3,2)", "broadcast", bres, err))
	for _, pr := range []struct{ t, g int }{{4, 4}, {8, 8}} {
		p := pops.New(pr.t, pr.g)
		s0 := p.NodeID(0, 0)
		name := fmt.Sprintf("POPS(%d,%d)", pr.t, pr.g)
		res, err := workload.ReplayBroadcast(p.StackGraph(), collective.POPSBroadcast(p, s0), s0, sim.Config{Seed: 9})
		b.WriteString(row(name, "broadcast", res, err))
		gres, err := workload.ReplayGossip(p.StackGraph(), collective.POPSGossip(p), sim.Config{Seed: 9})
		b.WriteString(row(name, "gossip", gres, err))
	}
	if err == nil && bres != nil {
		b.WriteString("\nSK(6,3,2) broadcast, round by round:\n\n")
		b.WriteString("| round | transmissions | expected receptions | delivered | engine slots |\n")
		b.WriteString("|---|---|---|---|---|\n")
		for _, r := range bres.Rounds {
			fmt.Fprintf(&b, "| %d | %d | %d | %d | %d |\n",
				r.Round, r.Transmissions, r.Expected, r.Delivered, r.Slots)
		}
	}
	return b.String()
}

func t10() string {
	var b strings.Builder
	b.WriteString("| network | s | couplers/group | frame slots | closed form s·⌈D/s⌉ | fair |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	type row struct {
		name string
		sg   interface {
			StackingFactor() int
		}
	}
	for _, pr := range []struct{ t, g int }{{4, 3}, {8, 8}, {2, 5}} {
		p := pops.New(pr.t, pr.g)
		frame := control.TDMAFrame(p.StackGraph())
		ok := frame.Validate(p.StackGraph()) == nil
		fmt.Fprintf(&b, "| POPS(%d,%d) | %d | %d | %d | %d | %v |\n",
			pr.t, pr.g, pr.t, pr.g, frame.Slots(), control.FrameLength(pr.t, pr.g), ok)
	}
	for _, pr := range []struct{ s, d, k int }{{6, 3, 2}, {2, 3, 2}, {4, 2, 3}} {
		n := stackkautz.New(pr.s, pr.d, pr.k)
		frame := control.TDMAFrame(n.StackGraph())
		ok := frame.Validate(n.StackGraph()) == nil
		fmt.Fprintf(&b, "| SK(%d,%d,%d) | %d | %d | %d | %d | %v |\n",
			pr.s, pr.d, pr.k, pr.s, pr.d+1, frame.Slots(), control.FrameLength(pr.s, pr.d+1), ok)
	}
	return b.String()
}

func t11() string {
	var b strings.Builder
	b.WriteString("SK(6,3,2), uniform rate 0.9, 1000 slots, no drain (saturation):\n\n")
	b.WriteString("| wavelengths | delivered | throughput/slot | avg latency | peak queue |\n")
	b.WriteString("|---|---|---|---|---|\n")
	grid := sweep.Grid{
		Topologies: []sweep.Topology{
			{Name: "SK(6,3,2)", Topo: sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())},
		},
		Rates:       []float64{0.9},
		Seeds:       []int64{5},
		Wavelengths: []int{1, 2, 4, 8},
		Slots:       1000,
	}
	for _, r := range (sweep.Runner{}).RunGrid(grid) {
		m := r.Metrics
		fmt.Fprintf(&b, "| %d | %d | %.3f | %.2f | %d |\n",
			r.Scenario.Wavelengths, m.Delivered, m.Throughput(), m.AvgLatency(), m.PeakQueue)
	}
	return b.String()
}

func t12() string {
	var b strings.Builder
	b.WriteString("cost model (launch 0 dBm, excess 3 dB, sensitivity -26 dBm):\n\n")
	rows := []analysis.Cost{
		analysis.POPSCost(4, 2),
		analysis.POPSCost(16, 8),
		analysis.StackKautzCost(6, 3, 2),
		analysis.StackKautzCost(16, 4, 2),
		analysis.StackImaseCost(8, 3, 20),
		analysis.DeBruijnCost(3, 4),
		analysis.SingleOPSCost(128),
	}
	b.WriteString(analysis.FormatTable(rows))
	b.WriteString("\nOTIS-based electronic networks of [24] (conclusion's corollary):\n\n")
	b.WriteString("| network | N | diameter | 2·df+1 bound |\n")
	b.WriteString("|---|---|---|---|\n")
	for h := 1; h <= 3; h++ {
		n := otisnets.New(otisnets.NewHypercubeFactor(h))
		fmt.Fprintf(&b, "| OTIS-Q%d | %d | %d | %d |\n",
			h, n.N(), n.Digraph().Diameter(), otisnets.DiameterUpperBound(h))
	}
	m := otisnets.New(otisnets.NewMeshFactor(3, 3))
	fmt.Fprintf(&b, "| OTIS-Mesh(3x3) | %d | %d | %d |\n",
		m.N(), m.Digraph().Diameter(), otisnets.DiameterUpperBound(m.Factor().Diameter()))
	return b.String()
}
