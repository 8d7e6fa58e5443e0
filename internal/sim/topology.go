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

// MaxNodes is the largest node count a simulated topology may have. The
// all-pairs tables keep int16 distances, and every distance in an N-node
// topology is at most N-1, so any N ≤ 32768 fits.
const MaxNodes = 1 << 15

// tableTopology is a network whose all-pairs tables are precomputed at
// construction, so NextCoupler and Distance are O(1) lookups on the
// simulation hot path. Stack-graphs (multi-OPS networks) and point-to-point
// digraphs (every arc its own degree-1 coupler) share it: both reduce to
// out-coupler lists, head lists and one table builder (allPairsTables).
// The tables take 6 bytes per (u, dst) pair: a 2-byte distance and a
// 4-byte route entry naming the coupler by its index in out[u].
type tableTopology struct {
	out   [][]int      // node -> couplers it transmits on, in topology order
	heads [][]int      // coupler -> listening nodes, in topology order
	dist  [][]int16    // dist[u][v], row views of one flat array
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
	if len(out) > MaxNodes {
		panic(fmt.Sprintf("sim: %d nodes exceed the table limit of %d", len(out), MaxNodes))
	}
	for u, cs := range out {
		if len(cs) > MaxRouteOut {
			panic(fmt.Sprintf("sim: node %d has %d out-couplers, more than a route entry indexes (%d)", u, len(cs), MaxRouteOut))
		}
	}
	t := &tableTopology{out: out, heads: heads}
	t.dist, t.route = allPairsTables(out, heads)
	return t
}

func (t *tableTopology) Nodes() int              { return len(t.out) }
func (t *tableTopology) Couplers() int           { return len(t.heads) }
func (t *tableTopology) OutCouplers(u int) []int { return t.out[u] }
func (t *tableTopology) Heads(c int) []int       { return t.heads[c] }
func (t *tableTopology) Distance(u, dst int) int { return int(t.dist[u][dst]) }

// RouteTable lends the engine the flat route table (RouteTabled).
func (t *tableTopology) RouteTable() []RouteEntry { return t.route }

// DistanceRows lends the engine the per-source distance rows
// (DistanceRowed).
func (t *tableTopology) DistanceRows() [][]int16 { return t.dist }

func (t *tableTopology) NextCoupler(u, dst int) (int, int) {
	return t.route[u*len(t.out)+dst].Decode(u, dst, t.out[u])
}

// allPairsTables builds both all-pairs tables in one bit-parallel BFS from
// every source at once. R_k[s], the set of nodes within k hops of s, is an
// n-bit row, and R_k[s] = R_{k-1}[s] ∪ ⋃ R_{k-1}[h] over s's (coupler,
// head) candidates (c, h). Level k walks s's candidates in topology order
// and ORs each R_{k-1}[h] into s's row: a bit new to the row is a node dst
// at distance k, and the candidate that brought it is s's route to dst.
// That candidate is the first whose head h is one hop closer to dst:
// dst ∈ R_{k-1}[h] says dist(h, dst) ≤ k-1, and no successor of s is more
// than one hop closer than s. The first candidate one hop closer is both
// the stack-graph scan's choice (the strictly closest head, first on ties)
// and the point-to-point scan's (the first strictly closer arc). It
// delivers exactly at level 1, where R_0[h] = {h} makes dst the head
// itself. A level costs O(candidates · n/64) word operations plus one
// write per newly reached pair.
//
// Both tables are allocated zeroed and written only where a pair is
// reached, so a pair's first touch is its final value. The self entries
// (distance 0, NoRoute) and unreachable pairs (digraph.Unreachable,
// NoRoute) are filled at the end from the final reach rows.
func allPairsTables(out, heads [][]int) ([][]int16, []RouteEntry) {
	n := len(out)
	w := (n + 63) / 64
	cur := make([]uint64, n*w)  // R_{k-1}
	next := make([]uint64, n*w) // R_k
	flat := make([]int16, n*n)
	route := make([]RouteEntry, n*n)
	for s := 0; s < n; s++ {
		cur[s*w+s>>6] |= 1 << (s & 63)
	}
	for k := 1; ; k++ {
		grew := false
		var deliver RouteEntry
		if k == 1 {
			deliver = deliverBit
		}
		for s := 0; s < n; s++ {
			row := next[s*w : (s+1)*w]
			copy(row, cur[s*w:(s+1)*w])
			drow := flat[s*n : (s+1)*n]
			rrow := route[s*n : (s+1)*n]
			for oi, c := range out[s] {
				for _, h := range heads[c] {
					src := cur[h*w : (h+1)*w]
					src = src[:len(row)]
					entry := RouteEntry(oi) | RouteEntry(h)<<routeOutBits | deliver
					for i, word := range src {
						fresh := word &^ row[i]
						if fresh == 0 {
							continue
						}
						row[i] |= fresh
						grew = true
						for ; fresh != 0; fresh &= fresh - 1 {
							dst := i<<6 + bits.TrailingZeros64(fresh)
							drow[dst] = int16(k)
							rrow[dst] = entry
						}
					}
				}
			}
		}
		if !grew {
			break
		}
		cur, next = next, cur
	}
	for s := 0; s < n; s++ {
		route[s*n+s] = NoRoute
		for i, word := range cur[s*w : (s+1)*w] {
			missing := ^word
			if tail := n - i<<6; tail < 64 {
				missing &= 1<<tail - 1
			}
			for ; missing != 0; missing &= missing - 1 {
				dst := s*n + i<<6 + bits.TrailingZeros64(missing)
				flat[dst] = digraph.Unreachable
				route[dst] = NoRoute
			}
		}
	}
	dist := make([][]int16, n)
	for u := range dist {
		dist[u] = flat[u*n : (u+1)*n : (u+1)*n]
	}
	return dist, route
}

// CheckTopology validates basic sanity: every node has at least one out
// coupler, every coupler has at least one head, and routing reaches every
// destination. Returns nil for usable topologies.
func CheckTopology(t Topology) error {
	n := t.Nodes()
	// Topologies that lend their distance rows are checked row by row;
	// others are queried once per pair.
	var rows [][]int16
	if dr, ok := t.(DistanceRowed); ok {
		rows = dr.DistanceRows()
	}
	for u := 0; u < n; u++ {
		if len(t.OutCouplers(u)) == 0 {
			return fmt.Errorf("sim: node %d cannot transmit", u)
		}
		if rows != nil {
			for v, d := range rows[u] {
				if d == digraph.Unreachable && v != u {
					return fmt.Errorf("sim: node %d cannot reach %d", u, v)
				}
			}
			continue
		}
		for v := 0; v < n; v++ {
			if t.Distance(u, v) == digraph.Unreachable && v != u {
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
