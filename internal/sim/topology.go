// Package sim is a slotted-time simulator for single-wavelength multi-OPS
// networks. Its semantics follow the POPS / stack-Kautz literature the
// paper builds on: time advances in synchronous slots; each OPS coupler
// carries at most one message per slot (single wavelength); a transmission
// on a coupler is heard by every node on the coupler's output side; each
// node transmits at most one message per slot. Store-and-forward routing
// with per-node FIFO queues is the default; hot-potato deflection (Zhang &
// Acampora, reference [25]) is available as an ablation. Point-to-point
// digraph networks (the de Bruijn single-OPS baseline of reference [22])
// are simulated through the same interface by viewing every arc as a
// degree-1 coupler.
package sim

import (
	"fmt"
	"math/bits"

	"otisnet/internal/digraph"
	"otisnet/internal/hypergraph"
)

// Topology abstracts a network for the engine: nodes, couplers, and a
// routing oracle.
type Topology interface {
	// Nodes returns the number of processors.
	Nodes() int
	// Couplers returns the number of couplers (transmission resources).
	Couplers() int
	// OutCouplers lists the couplers node u may transmit on.
	OutCouplers(u int) []int
	// Heads lists the nodes that hear a transmission on coupler c.
	Heads(c int) []int
	// NextCoupler returns the coupler a message at u bound for dst should
	// take under shortest-path routing, and the preferred next-hop node.
	NextCoupler(u, dst int) (coupler, nextHop int)
	// Distance returns the hop distance from u to dst.
	Distance(u, dst int) int
}

// tableTopology is a network whose all-pairs tables are precomputed at
// construction, so NextCoupler and Distance are O(1) lookups on the
// simulation hot path. Stack-graphs (multi-OPS networks) and point-to-point
// digraphs (every arc its own degree-1 coupler) share it: both reduce to
// out-coupler lists, head lists and one table builder (newTableTopology).
type tableTopology struct {
	out   [][]int      // node -> couplers it transmits on, in topology order
	heads [][]int      // coupler -> listening nodes, in topology order
	dist  [][]int      // dist[u][v], row views of one flat array
	route []RouteEntry // row-major (u, dst) routing decisions, lent to the engine
}

// NewStackTopology wraps a stack-graph for simulation. Distances are hop
// counts through couplers; routing takes, at each hop, the coupler whose
// head set contains the node strictly closest to the destination, first in
// coupler and head order on ties. All routing decisions are precomputed so
// the per-slot NextCoupler call is a table lookup.
func NewStackTopology(sg *hypergraph.StackGraph) Topology {
	arcs := sg.Hyperarcs()
	out := make([][]int, sg.N())
	heads := make([][]int, len(arcs))
	for c, a := range arcs {
		heads[c] = a.Head
		for _, u := range a.Tail {
			if l := len(out[u]); l == 0 || out[u][l-1] != c {
				out[u] = append(out[u], c)
			}
		}
	}
	return newTableTopology(out, heads)
}

// NewPointToPointTopology wraps a digraph where each arc is a dedicated
// point-to-point optical link (the single-OPS baseline). Routing takes the
// first out-arc whose head is strictly closer to the destination, and is
// precomputed into a full table, as for stack topologies.
func NewPointToPointTopology(g *digraph.Digraph) Topology {
	arcs := g.Arcs()
	head := make([]int, len(arcs))
	heads := make([][]int, len(arcs))
	out := make([][]int, g.N())
	for c, a := range arcs {
		head[c] = a[1]
		heads[c] = head[c : c+1 : c+1]
		out[a[0]] = append(out[a[0]], c)
	}
	return newTableTopology(out, heads)
}

func newTableTopology(out, heads [][]int) *tableTopology {
	t := &tableTopology{out: out, heads: heads}
	t.dist = allPairsDistances(out, heads)
	t.route = buildRoutes(out, heads, t.dist)
	return t
}

func (t *tableTopology) Nodes() int              { return len(t.out) }
func (t *tableTopology) Couplers() int           { return len(t.heads) }
func (t *tableTopology) OutCouplers(u int) []int { return t.out[u] }
func (t *tableTopology) Heads(c int) []int       { return t.heads[c] }
func (t *tableTopology) Distance(u, dst int) int { return t.dist[u][dst] }

// RouteTable lends the engine the flat route table (RouteTabled).
func (t *tableTopology) RouteTable() []RouteEntry { return t.route }

// DistanceRows lends the engine the per-source distance rows
// (DistanceRowed).
func (t *tableTopology) DistanceRows() [][]int { return t.dist }

func (t *tableTopology) NextCoupler(u, dst int) (int, int) {
	r := t.route[u*len(t.out)+dst]
	return r.Coupler(), r.NextHop()
}

// allPairsDistances returns dist[u][v], the hop distance from u to v
// through couplers (digraph.Unreachable when there is no path), as row
// views of one flat array. It runs every BFS at once, bit-parallel: R_k[s],
// the set of nodes within k hops of s, is an n-bit row, and
// R_{k+1}[s] = R_k[s] ∪ ⋃_{w ∈ succ(s)} R_k[w]. The bits new in R_{k+1}[s]
// are exactly the nodes at distance k+1. A level costs O(arcs · n/64) word
// operations, the whole table O(diameter · arcs · n/64) plus one write per
// reachable pair.
func allPairsDistances(out, heads [][]int) [][]int {
	n := len(out)
	succ := successors(out, heads)
	w := (n + 63) / 64
	cur := make([]uint64, n*w)
	next := make([]uint64, n*w)
	flat := make([]int, n*n)
	for i := range flat {
		flat[i] = digraph.Unreachable
	}
	for s := 0; s < n; s++ {
		cur[s*w+s>>6] |= 1 << (s & 63)
		flat[s*n+s] = 0
	}
	for k := 1; ; k++ {
		grew := false
		for s := 0; s < n; s++ {
			prev := cur[s*w : (s+1)*w]
			row := next[s*w : (s+1)*w]
			copy(row, prev)
			for _, v := range succ[s] {
				src := cur[v*w : (v+1)*w]
				src = src[:len(row)]
				for i := range row {
					row[i] |= src[i]
				}
			}
			drow := flat[s*n : (s+1)*n]
			for i, word := range row {
				for fresh := word &^ prev[i]; fresh != 0; fresh &= fresh - 1 {
					drow[i<<6+bits.TrailingZeros64(fresh)] = k
					grew = true
				}
			}
		}
		if !grew {
			break
		}
		cur, next = next, cur
	}
	dist := make([][]int, n)
	for u := range dist {
		dist[u] = flat[u*n : (u+1)*n : (u+1)*n]
	}
	return dist
}

// successors lists, per node, the distinct nodes one hop away: the heads
// of its out-couplers.
func successors(out, heads [][]int) [][]int {
	succ := make([][]int, len(out))
	seen := make([]int, len(out)) // seen[v] == u+1: v already listed for u
	for u, cs := range out {
		for _, c := range cs {
			for _, h := range heads[c] {
				if seen[h] != u+1 {
					seen[h] = u + 1
					succ[u] = append(succ[u], h)
				}
			}
		}
	}
	return succ
}

// buildRoutes fills the row-major route table from the distances, one
// source row at a time: u's (coupler, head) candidates are walked in
// topology order with dst as the inner loop over dist[h], and each dst
// takes the first candidate one hop closer to it than u. On BFS distances
// no head is more than one hop closer, so that is exactly the per-pair
// scan's choice under either tie-break — the strictly closest head, first
// on ties (stack-graphs), and the first strictly closer arc
// (point-to-point). The delivers-here bit is nextHop == dst: only dst
// itself is at distance 0.
func buildRoutes(out, heads [][]int, dist [][]int) []RouteEntry {
	n := len(out)
	route := make([]RouteEntry, n*n)
	// want[dst] is the distance a candidate head must have to route dst:
	// dist[u][dst]-1 while dst is unrouted, unmatchable once it is routed,
	// for dst == u, or when dst is unreachable from u.
	const unmatchable = digraph.Unreachable - 1
	want := make([]int, n)
	for u := 0; u < n; u++ {
		row := route[u*n : (u+1)*n]
		du := dist[u]
		for dst, d := range du {
			row[dst] = RouteEntry{c: -1, h: -1}
			want[dst] = d - 1
			if d == digraph.Unreachable {
				want[dst] = unmatchable
			}
		}
		row[u] = RouteEntry{c: -1, h: int32(u)}
		want[u] = unmatchable
		for _, c := range out[u] {
			for _, h := range heads[c] {
				dh := dist[h][:n]
				for dst, d := range dh {
					if d == want[dst] {
						row[dst] = MakeRouteEntry(c, h, h == dst)
						want[dst] = unmatchable
					}
				}
			}
		}
	}
	return route
}

// CheckTopology validates basic sanity: every node has at least one out
// coupler, every coupler has at least one head, and routing reaches every
// destination. Returns nil for usable topologies.
func CheckTopology(t Topology) error {
	n := t.Nodes()
	// Topologies that lend their distance rows are checked row by row;
	// others are queried once per pair.
	var rows [][]int
	var row []int
	if dr, ok := t.(DistanceRowed); ok {
		rows = dr.DistanceRows()
	} else {
		row = make([]int, n)
	}
	for u := 0; u < n; u++ {
		if len(t.OutCouplers(u)) == 0 {
			return fmt.Errorf("sim: node %d cannot transmit", u)
		}
		if rows != nil {
			row = rows[u]
		} else {
			for v := range row {
				row[v] = t.Distance(u, v)
			}
		}
		for v, d := range row {
			if d == digraph.Unreachable && v != u {
				return fmt.Errorf("sim: node %d cannot reach %d", u, v)
			}
		}
	}
	for c := 0; c < t.Couplers(); c++ {
		if len(t.Heads(c)) == 0 {
			return fmt.Errorf("sim: coupler %d has no listeners", c)
		}
	}
	return nil
}
