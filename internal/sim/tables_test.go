package sim_test

// Differential test of the all-pairs table builder (bit-parallel BFS plus
// row-by-row route fill) against the per-pair scans it replaced: one BFS
// per source on the underlying digraph, and per (u, dst) the scan over u's
// couplers and heads in topology order. Stack-graphs keep the strictly
// closest head, first on ties; point-to-point digraphs take the first
// strictly closer arc. Every distance and every packed route entry must
// match bit for bit.

import (
	"fmt"
	"math/rand"
	"testing"

	"otisnet/internal/digraph"
	"otisnet/internal/faults"
	"otisnet/internal/kautz"
	"otisnet/internal/pops"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
)

// tableCase is one topology under test with the digraph its distances are
// defined on and the tie-break of its construction-time scan.
type tableCase struct {
	name        string
	topo        sim.Topology
	und         *digraph.Digraph
	firstCloser bool // point-to-point: first strictly closer arc wins
}

func stackCase(name string, sg interface {
	UnderlyingDigraph() *digraph.Digraph
}, topo sim.Topology) tableCase {
	return tableCase{name: name, topo: topo, und: sg.UnderlyingDigraph()}
}

func p2pCase(name string, g *digraph.Digraph) tableCase {
	return tableCase{name: name, topo: sim.NewPointToPointTopology(g), und: g, firstCloser: true}
}

// randomDigraph has loops, parallel arcs and (usually) unreachable pairs.
func randomDigraph(n, arcs int, seed int64) *digraph.Digraph {
	rng := rand.New(rand.NewSource(seed))
	g := digraph.New(n)
	for i := 0; i < arcs; i++ {
		g.AddArc(rng.Intn(n), rng.Intn(n))
	}
	return g
}

func tableCases() []tableCase {
	var cs []tableCase
	for _, p := range [][3]int{{1, 2, 2}, {2, 2, 3}, {3, 3, 2}, {5, 2, 4}} {
		sg := stackkautz.New(p[0], p[1], p[2]).StackGraph()
		cs = append(cs, stackCase(fmt.Sprintf("SK(%d,%d,%d)", p[0], p[1], p[2]), sg, sim.NewStackTopology(sg)))
	}
	for _, p := range [][3]int{{1, 2, 7}, {3, 2, 23}, {2, 3, 50}} {
		sg := stackkautz.NewII(p[0], p[1], p[2]).StackGraph()
		cs = append(cs, stackCase(fmt.Sprintf("stack-II(%d,%d,%d)", p[0], p[1], p[2]), sg, sim.NewStackTopology(sg)))
	}
	for _, p := range [][2]int{{1, 3}, {4, 2}, {5, 13}, {9, 8}} {
		sg := pops.New(p[0], p[1]).StackGraph()
		cs = append(cs, stackCase(fmt.Sprintf("POPS(%d,%d)", p[0], p[1]), sg, sim.NewStackTopology(sg)))
	}
	for _, p := range [][2]int{{2, 3}, {2, 6}, {3, 4}, {2, 7}} {
		cs = append(cs, p2pCase(fmt.Sprintf("deBruijn(%d,%d)", p[0], p[1]), kautz.NewDeBruijn(p[0], p[1]).Digraph()))
	}
	cs = append(cs, p2pCase("random(70,150)", randomDigraph(70, 150, 1)))
	cs = append(cs, p2pCase("random(130,400)", randomDigraph(130, 400, 2)))
	return cs
}

// oracleDist is one BFS per source on the underlying digraph.
func oracleDist(g *digraph.Digraph) [][]int {
	dist := make([][]int, g.N())
	for u := range dist {
		dist[u] = g.BFS(u)
	}
	return dist
}

// oracleRoute is the per-pair construction-time scan.
func oracleRoute(topo sim.Topology, dist [][]int, u, dst int, firstCloser bool) sim.RouteEntry {
	if u == dst {
		return sim.MakeRouteEntry(-1, u, false)
	}
	best, bestHop, bestDist := -1, -1, dist[u][dst]
	for _, c := range topo.OutCouplers(u) {
		for _, h := range topo.Heads(c) {
			d := dist[h][dst]
			if d == digraph.Unreachable || d >= bestDist {
				continue
			}
			if firstCloser {
				return sim.MakeRouteEntry(c, h, h == dst)
			}
			best, bestHop, bestDist = c, h, d
		}
	}
	return sim.MakeRouteEntry(best, bestHop, best >= 0 && bestHop == dst)
}

// checkTables compares topo's lent tables with the oracles.
func checkTables(t *testing.T, label string, topo sim.Topology, dist [][]int, firstCloser bool) {
	t.Helper()
	n := topo.Nodes()
	gotDist := topo.(sim.DistanceRowed).DistanceRows()
	route := topo.(sim.RouteTabled).RouteTable()
	if len(gotDist) != n || len(route) != n*n {
		t.Fatalf("%s: tables sized %d rows, %d entries; want %d, %d", label, len(gotDist), len(route), n, n*n)
	}
	for u := 0; u < n; u++ {
		for dst := 0; dst < n; dst++ {
			if got, want := gotDist[u][dst], dist[u][dst]; got != want {
				t.Fatalf("%s: dist[%d][%d] = %d, want %d", label, u, dst, got, want)
			}
			if got, want := route[u*n+dst], oracleRoute(topo, dist, u, dst, firstCloser); got != want {
				t.Fatalf("%s: route[%d][%d] = %+v, want %+v", label, u, dst, got, want)
			}
			if c, h := topo.NextCoupler(u, dst); c != route[u*n+dst].Coupler() || h != route[u*n+dst].NextHop() {
				t.Fatalf("%s: NextCoupler(%d,%d) = (%d,%d) disagrees with the table", label, u, dst, c, h)
			}
		}
	}
}

func TestAllPairsTablesMatchScanOracle(t *testing.T) {
	for _, tc := range tableCases() {
		t.Run(tc.name, func(t *testing.T) {
			dist := oracleDist(tc.und)
			checkTables(t, tc.name, tc.topo, dist, tc.firstCloser)

			// A fault wrapper starts from the builder's tables, repairs
			// rows with its own scan while elements are down, and must
			// land back on the builder's tables once everything is
			// repaired.
			n, m := tc.topo.Nodes(), tc.topo.Couplers()
			plan := faults.NewPlan("down-up",
				faults.Event{Slot: 1, Elem: faults.Element{Kind: faults.KindNode, Node: n / 2}},
				faults.Event{Slot: 1, Elem: faults.Element{Kind: faults.KindCoupler, Coupler: m - 1}},
				faults.Event{Slot: 3, Repair: true, Elem: faults.Element{Kind: faults.KindNode, Node: n / 2}},
				faults.Event{Slot: 3, Repair: true, Elem: faults.Element{Kind: faults.KindCoupler, Coupler: m - 1}},
			)
			ft := faults.Wrap(tc.topo, plan)
			for slot := 0; slot <= 3; slot++ {
				ft.Advance(slot)
			}
			checkTables(t, tc.name+" after repair", ft, dist, tc.firstCloser)
		})
	}
}
