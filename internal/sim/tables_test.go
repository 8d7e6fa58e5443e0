package sim_test

// Differential test of the all-pairs table builder (one fused bit-parallel
// BFS filling distances and routes) against the per-pair scans it
// replaced: one BFS per source on the underlying digraph, and per
// (u, dst) the scan over u's couplers and heads in topology order.
// Stack-graphs keep the strictly closest head, first on ties;
// point-to-point digraphs take the first strictly closer arc. Every
// distance and every decoded (coupler, next hop, delivers) decision must
// match. Also here: the route-entry layout at its edges and the tables'
// memory footprint.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

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

// decision is one routing choice as ids: what a route entry decodes to.
type decision struct {
	coupler, nextHop int
	delivers         bool
}

// oracleRoute is the per-pair construction-time scan.
func oracleRoute(topo sim.Topology, dist [][]int, u, dst int, firstCloser bool) decision {
	if u == dst {
		return decision{-1, u, false}
	}
	best, bestHop, bestDist := -1, -1, dist[u][dst]
	for _, c := range topo.OutCouplers(u) {
		for _, h := range topo.Heads(c) {
			d := dist[h][dst]
			if d == digraph.Unreachable || d >= bestDist {
				continue
			}
			if firstCloser {
				return decision{c, h, h == dst}
			}
			best, bestHop, bestDist = c, h, d
		}
	}
	return decision{best, bestHop, best >= 0 && bestHop == dst}
}

// checkTables compares topo's lent tables with the oracles, decoding each
// route entry against topo's out-coupler lists.
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
			if got, want := int(gotDist[u][dst]), dist[u][dst]; got != want {
				t.Fatalf("%s: dist[%d][%d] = %d, want %d", label, u, dst, got, want)
			}
			r := route[u*n+dst]
			c, h := r.Decode(u, dst, topo.OutCouplers(u))
			if got, want := (decision{c, h, r.Delivers()}), oracleRoute(topo, dist, u, dst, firstCloser); got != want {
				t.Fatalf("%s: route[%d][%d] = %+v, want %+v", label, u, dst, got, want)
			}
			if nc, nh := topo.NextCoupler(u, dst); nc != c || nh != h {
				t.Fatalf("%s: NextCoupler(%d,%d) = (%d,%d) disagrees with the table", label, u, dst, nc, nh)
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

func TestRouteEntryLayoutBoundaries(t *testing.T) {
	// One source whose out list reaches the layout's limit; coupler ids
	// are spread so an index never equals its id.
	out := make([]int, sim.MaxRouteOut)
	for i := range out {
		out[i] = 3*i + 1
	}
	last, top := sim.MaxRouteOut-1, sim.MaxNodes-1
	for _, tc := range []struct {
		name             string
		outIdx, nextHop  int
		delivers         bool
		dst, wantCoupler int
	}{
		{"zero", 0, 0, false, 9, out[0]},
		{"largest out-index", last, 0, false, 9, out[last]},
		{"largest next hop", 0, top, false, 9, out[0]},
		{"both largest", last, top, false, 9, out[last]},
		{"delivers", last, top, true, top, out[last]},
	} {
		r := sim.MakeRouteEntry(tc.outIdx, tc.nextHop, tc.delivers)
		if !r.Routed() {
			t.Fatalf("%s: entry %#x reads as no route", tc.name, uint32(r))
		}
		if r.OutIndex() != tc.outIdx || r.NextHop() != tc.nextHop || r.Delivers() != tc.delivers {
			t.Fatalf("%s: entry %#x round-trips to (%d, %d, %v), want (%d, %d, %v)", tc.name, uint32(r),
				r.OutIndex(), r.NextHop(), r.Delivers(), tc.outIdx, tc.nextHop, tc.delivers)
		}
		if c, h := r.Decode(7, tc.dst, out); c != tc.wantCoupler || h != tc.nextHop {
			t.Fatalf("%s: decodes to (%d, %d), want (%d, %d)", tc.name, c, h, tc.wantCoupler, tc.nextHop)
		}
	}
	if sim.NoRoute.Routed() || sim.NoRoute.Delivers() {
		t.Fatal("NoRoute reads as routed")
	}
	if c, h := sim.NoRoute.Decode(7, 7, out); c != -1 || h != 7 {
		t.Fatalf("self entry decodes to (%d, %d), want (-1, 7)", c, h)
	}
	if c, h := sim.NoRoute.Decode(7, 8, out); c != -1 || h != -1 {
		t.Fatalf("no-route entry decodes to (%d, %d), want (-1, -1)", c, h)
	}
	if got := unsafe.Sizeof(sim.NoRoute); got != 4 {
		t.Fatalf("RouteEntry is %d bytes, want 4", got)
	}
	for _, bad := range [][2]int{{sim.MaxRouteOut, 0}, {0, sim.MaxNodes}, {-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MakeRouteEntry(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			sim.MakeRouteEntry(bad[0], bad[1], false)
		}()
	}
}

// TestTopologyTablesFootprint pins what building a topology allocates:
// 6 bytes per pair for the tables (2-byte distance, 4-byte route entry),
// half a byte per pair of slack for the O(N) lists, and the builder's two
// reach sets of N bits per row. The count is deterministic, so it holds
// on any machine.
func TestTopologyTablesFootprint(t *testing.T) {
	g := kautz.NewDeBruijn(2, 10).Digraph()
	n := uint64(g.N())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	topo := sim.NewPointToPointTopology(g)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(topo)
	words := n * (n + 63) / 64
	limit := 13*n*n/2 + 2*8*words
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d B, %.3f B/pair", got, float64(got)/float64(n*n))
	if got > limit {
		t.Fatalf("NewPointToPointTopology(deBruijn(2,10)) allocated %d B (%.2f B/pair), want at most %d",
			got, float64(got)/float64(n*n), limit)
	}
}
