package sim

import "fmt"

// Compiled-topology snapshot: the engine does not call any Topology method
// inside Step. At construction the topology is compiled into flat arrays —
// CSR out-coupler and head lists, one row-major route table with a packed
// delivers-here bit, and distance rows — and the step loop reads only
// those. Route entries name the coupler by its index in the source's out
// list, so the snapshot also keeps the immutable out-list CSR they index
// into (the live one for static topologies, a copy taken at Compile for
// dynamic ones).
// Topologies that already maintain the tables in this shape (the stack,
// point-to-point and fault-wrapped topologies) hand the snapshot their
// live backing arrays, so compilation is O(n + m + arcs) and dynamic
// row repairs done by faults.FaultedTopology are visible to the engine
// without any copying or invalidation protocol. Arbitrary Topology
// implementations are compiled by querying the interface once per (u, dst)
// pair.
//
// The snapshot is its own type, CompiledTopology, because it is immutable
// between fault events and therefore shareable: a ReplicaSet runs many
// replicas (independent seeds, loads, workloads) over one compiled base,
// and only replicas with a private dynamic topology (a fault wrapper)
// compile a private view.

// RouteEntry is a packed, precompiled routing decision in 4 bytes. Bits
// 0..14 hold the index of the coupler to request in the source's
// out-coupler list, bits 15..29 the preferred next-hop node, and bit 30
// the delivers-here bit (the destination itself hears the coupler). Bit
// 31 is clear in every route; NoRoute, all ones, marks a pair with no
// route, the source's own entry included. Naming the coupler by its index
// rather than its id keeps the entry at 4 bytes for every topology of up
// to MaxNodes nodes, whatever its coupler count. The index refers to the
// out-coupler lists the table was built over (see RouteTabled); Decode
// expands an entry back to ids.
type RouteEntry uint32

const (
	routeOutBits = 15
	routeOutMask = 1<<routeOutBits - 1
	routeHopMask = MaxNodes - 1
	deliverBit   = RouteEntry(1) << 30

	// NoRoute is the entry of a pair with no route, and of u's own entry.
	NoRoute = ^RouteEntry(0)
	// MaxRouteOut is the longest out-coupler list a RouteEntry can index.
	MaxRouteOut = 1 << routeOutBits
)

// MakeRouteEntry packs one routing decision: the chosen coupler's index
// in the source's out-coupler list, the next-hop node and the
// delivers-here bit. It panics on a value the layout cannot hold, so no
// decision is ever mis-encoded.
func MakeRouteEntry(outIdx, nextHop int, delivers bool) RouteEntry {
	if outIdx < 0 || outIdx >= MaxRouteOut || nextHop < 0 || nextHop >= MaxNodes {
		panic(fmt.Sprintf("sim: route entry (out %d, next hop %d) outside the 4-byte layout", outIdx, nextHop))
	}
	r := RouteEntry(outIdx) | RouteEntry(nextHop)<<routeOutBits
	if delivers {
		r |= deliverBit
	}
	return r
}

// EncodeRoute packs node u's decision to reach its destination over
// coupler toward nextHop, as ids, against t's current out-coupler list.
// coupler < 0 means no route. It panics when the coupler is not one of
// u's: such a decision has no index form.
func EncodeRoute(t Topology, u, coupler, nextHop int, delivers bool) RouteEntry {
	if coupler < 0 {
		return NoRoute
	}
	for oi, c := range t.OutCouplers(u) {
		if c == coupler {
			return MakeRouteEntry(oi, nextHop, delivers)
		}
	}
	panic(fmt.Sprintf("sim: node %d routes over coupler %d, not one of its out-couplers", u, coupler))
}

// Routed reports whether the entry names a coupler.
func (r RouteEntry) Routed() bool { return r != NoRoute }

// OutIndex returns the chosen coupler's index in the source's out list.
func (r RouteEntry) OutIndex() int { return int(r & routeOutMask) }

// NextHop returns the preferred next-hop node.
func (r RouteEntry) NextHop() int { return int(r >> routeOutBits & routeHopMask) }

// Delivers reports whether the destination hears the chosen coupler.
func (r RouteEntry) Delivers() bool { return r.Routed() && r&deliverBit != 0 }

// Decode expands the entry of pair (u, dst) to NextCoupler's ids, given
// the out-coupler list of u it was encoded against. An unrouted entry
// decodes to (-1, u) for u == dst and (-1, -1) otherwise.
func (r RouteEntry) Decode(u, dst int, out []int) (coupler, nextHop int) {
	if !r.Routed() {
		if u == dst {
			return -1, u
		}
		return -1, -1
	}
	return out[r.OutIndex()], r.NextHop()
}

// RouteTabled is implemented by topologies that maintain their routing
// decisions as one flat row-major table (entry for (u, dst) at index
// u*Nodes()+dst). Entries index into OutCouplers(u) as it stands at
// Compile time (for a DynamicTopology, right after Reset), and keep doing
// so after fault events shrink the live lists. The snapshot
// borrows the returned slice as its hot-path route table instead of
// copying it, so a dynamic topology that repairs rows in place
// (faults.FaultedTopology) updates the engine for free. The slice identity
// must be stable for the topology's lifetime.
type RouteTabled interface {
	RouteTable() []RouteEntry
}

// DistanceRowed is implemented by topologies that maintain per-source
// distance rows (dist[u][dst], digraph.Unreachable = -1 when dst is cut
// off). The snapshot borrows the outer slice; dynamic topologies may
// rewrite row contents in place between slots.
type DistanceRowed interface {
	DistanceRows() [][]int16
}

// CompiledTopology is the flat, step-ready form of a Topology: CSR
// out-coupler and head lists, the row-major route table with the out-list
// CSR its entries index into, and the distance rows. It is immutable
// between topology events, so any number of replicas may share one
// instance; a replica whose topology is dynamic (fault events) must own a
// private instance, because events repair the tables in place.
type CompiledTopology struct {
	topo Topology
	n, m int

	outStart  []int32 // node u transmits on outList[outStart[u]:outStart[u]+outCount[u]]
	outCount  []int32
	outList   []int32
	headStart []int32 // coupler c is heard by headList[headStart[c]:headStart[c]+headCount[c]]
	headCount []int32
	headList  []int32
	route     []RouteEntry // row-major (u, dst) routing decisions
	dist      [][]int16    // dist[u][dst] for deflection choices
	ownsRoute bool
	ownsDist  bool

	// The decode CSR: entry (u, dst) names coupler
	// routeOut[routeOutStart[u]+OutIndex()]. It aliases the live out CSR
	// unless the topology is dynamic and lends its route table: fault
	// masks shrink the live lists, while the lent entries keep indexing
	// the pristine ones, so those are copied at Compile.
	routeOutStart []int32
	routeOut      []int32

	// dirty records that a topology event mutated the snapshot since the
	// last sync, so a Reset recompiles only when something actually changed.
	dirty bool
}

// Compile builds the flat snapshot of a topology. A topology that also
// implements DynamicTopology is reset to its pre-event state first, so the
// snapshot covers the full (pristine) structure and the CSR slot
// capacities fit the largest live structure.
func Compile(topo Topology) *CompiledTopology {
	dyn, isDyn := topo.(DynamicTopology)
	if isDyn {
		dyn.Reset()
	}
	n, m := topo.Nodes(), topo.Couplers()
	if n > MaxNodes {
		panic(fmt.Sprintf("sim: %d nodes exceed the table limit of %d", n, MaxNodes))
	}
	ct := &CompiledTopology{topo: topo, n: n, m: m}
	ct.outStart = make([]int32, n+1)
	for u := 0; u < n; u++ {
		ct.outStart[u+1] = ct.outStart[u] + int32(len(topo.OutCouplers(u)))
	}
	ct.outCount = make([]int32, n)
	ct.outList = make([]int32, ct.outStart[n])
	ct.headStart = make([]int32, m+1)
	for c := 0; c < m; c++ {
		ct.headStart[c+1] = ct.headStart[c] + int32(len(topo.Heads(c)))
	}
	ct.headCount = make([]int32, m)
	ct.headList = make([]int32, ct.headStart[m])
	ct.refreshStructure()

	ct.routeOutStart, ct.routeOut = ct.outStart, ct.outList
	if rt, ok := topo.(RouteTabled); ok {
		ct.route = rt.RouteTable()
		if isDyn {
			ct.routeOutStart = append([]int32(nil), ct.outStart...)
			ct.routeOut = append([]int32(nil), ct.outList...)
		}
	} else {
		ct.ownsRoute = true
		ct.route = make([]RouteEntry, n*n)
		ct.rebuildOwnedRoute()
	}
	if dr, ok := topo.(DistanceRowed); ok {
		ct.dist = dr.DistanceRows()
	} else {
		ct.ownsDist = true
		flat := make([]int16, n*n)
		ct.dist = make([][]int16, n)
		for u := 0; u < n; u++ {
			ct.dist[u] = flat[u*n : (u+1)*n : (u+1)*n]
		}
		ct.rebuildOwnedDist()
	}
	return ct
}

// Nodes returns the compiled node count.
func (ct *CompiledTopology) Nodes() int { return ct.n }

// Couplers returns the compiled coupler count.
func (ct *CompiledTopology) Couplers() int { return ct.m }

// Topology returns the topology the snapshot was compiled from.
func (ct *CompiledTopology) Topology() Topology { return ct.topo }

// refreshStructure copies the topology's current out-coupler and head sets
// into the CSR arrays. Called at compile time and again after every
// topology change; between changes Step reads only the arrays. Live sets
// normally stay within the capacity reserved at compile time (fault masks
// only shrink them); if an exotic dynamic topology outgrows a slot, the
// CSR is re-laid-out.
func (ct *CompiledTopology) refreshStructure() {
	for u := 0; u < ct.n; u++ {
		oc := ct.topo.OutCouplers(u)
		if int32(len(oc)) > ct.outStart[u+1]-ct.outStart[u] {
			ct.relayoutOut()
			return
		}
		base := ct.outStart[u]
		for i, c := range oc {
			ct.outList[base+int32(i)] = int32(c)
		}
		ct.outCount[u] = int32(len(oc))
	}
	for c := 0; c < ct.m; c++ {
		hs := ct.topo.Heads(c)
		if int32(len(hs)) > ct.headStart[c+1]-ct.headStart[c] {
			ct.relayoutHeads()
			return
		}
		base := ct.headStart[c]
		for i, h := range hs {
			ct.headList[base+int32(i)] = int32(h)
		}
		ct.headCount[c] = int32(len(hs))
	}
}

// relayoutOut rebuilds the out-coupler CSR with fresh slot capacities, then
// retries the full refresh.
func (ct *CompiledTopology) relayoutOut() {
	for u := 0; u < ct.n; u++ {
		ct.outStart[u+1] = ct.outStart[u] + int32(len(ct.topo.OutCouplers(u)))
	}
	ct.outList = make([]int32, ct.outStart[ct.n])
	ct.refreshStructure()
}

// relayoutHeads is the head-list counterpart of relayoutOut.
func (ct *CompiledTopology) relayoutHeads() {
	for c := 0; c < ct.m; c++ {
		ct.headStart[c+1] = ct.headStart[c] + int32(len(ct.topo.Heads(c)))
	}
	ct.headList = make([]int32, ct.headStart[ct.m])
	ct.refreshStructure()
}

// rebuildOwnedRoute recompiles the snapshot-owned route table by querying
// the Topology interface once per (u, dst) pair and encoding each decision
// against the live out lists. The delivers-here bit is the exact head-set
// membership the legacy engine tested per transmission: dst ∈ Heads(chosen
// coupler).
func (ct *CompiledTopology) rebuildOwnedRoute() {
	// hears[c] marks, for the current dst, the couplers dst listens on.
	hears := make([]bool, ct.m)
	heardBy := make([][]int32, ct.n)
	for c := 0; c < ct.m; c++ {
		base, cnt := ct.headStart[c], ct.headCount[c]
		for hi := base; hi < base+cnt; hi++ {
			h := int(ct.headList[hi])
			heardBy[h] = append(heardBy[h], int32(c))
		}
	}
	for dst := 0; dst < ct.n; dst++ {
		for _, c := range heardBy[dst] {
			hears[c] = true
		}
		for u := 0; u < ct.n; u++ {
			c, hop := ct.topo.NextCoupler(u, dst)
			ct.route[u*ct.n+dst] = EncodeRoute(ct.topo, u, c, hop, c >= 0 && c < ct.m && hears[c])
		}
		for _, c := range heardBy[dst] {
			hears[c] = false
		}
	}
}

// rebuildOwnedDist refills the snapshot-owned distance rows in place.
func (ct *CompiledTopology) rebuildOwnedDist() {
	for u := 0; u < ct.n; u++ {
		row := ct.dist[u]
		for v := 0; v < ct.n; v++ {
			row[v] = int16(ct.topo.Distance(u, v))
		}
	}
}

// recompileDynamic re-syncs the snapshot after a TopologyChange. Borrowed
// tables (the RouteTabled / DistanceRowed fast path) were already repaired
// in place by the topology — faults.FaultedTopology rebuilds exactly the
// rows its EntryChanged/RowsRebuilt machinery flags — so only the CSR
// structure needs copying; snapshot-owned tables are recompiled wholesale.
func (ct *CompiledTopology) recompileDynamic() {
	ct.refreshStructure()
	if ct.ownsRoute {
		// Owned entries are re-encoded against the live lists, which a
		// relayout may have moved.
		ct.routeOutStart, ct.routeOut = ct.outStart, ct.outList
		ct.rebuildOwnedRoute()
	}
	if ct.ownsDist {
		ct.rebuildOwnedDist()
	}
}
