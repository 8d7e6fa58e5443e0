package sweep

// TopoSpec is a serializable description of a simulation topology — the
// JSON-facing counterpart of cmd/netsim's -net flags, shared by the CLI
// and the sweep service (internal/sweepserver) so a grid submitted over
// HTTP builds exactly the networks the command line would. Build is
// deterministic: equal specs produce structurally identical topologies
// (and therefore equal TopologyFingerprints).

import (
	"fmt"

	"otisnet/internal/kautz"
	"otisnet/internal/pops"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
)

// TopoSpec names one of the paper's network families and its parameters.
// Zero-valued parameters take the family's canonical defaults (the
// cmd/netsim flag defaults), so {"net":"sk"} is SK(6,3,2).
type TopoSpec struct {
	// Net selects the family: "sk" (stack-Kautz), "stackii"
	// (stack-Imase-Itoh), "pops" or "debruijn".
	Net string `json:"net"`
	// T and G are the POPS group size and group count.
	T int `json:"t,omitempty"`
	G int `json:"g,omitempty"`
	// S is the stack-network group size, D the degree, K the diameter.
	S int `json:"s,omitempty"`
	D int `json:"d,omitempty"`
	K int `json:"k,omitempty"`
	// N is the stack-Imase-Itoh group count.
	N int `json:"n,omitempty"`
}

// Canonical fills zero parameters with the cmd/netsim flag defaults,
// yielding the normalized spec Build actually constructs. Callers that
// memoize built topologies per spec (internal/sweepserver) key by the
// canonical form so parameter spellings of the same network share one
// entry.
func (ts TopoSpec) Canonical() TopoSpec { return ts.withDefaults() }

// withDefaults fills zero parameters with the cmd/netsim flag defaults.
func (ts TopoSpec) withDefaults() TopoSpec {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&ts.T, 4)
	def(&ts.G, 4)
	def(&ts.S, 6)
	def(&ts.D, 3)
	def(&ts.K, 2)
	def(&ts.N, 12)
	return ts
}

// Build constructs the topology, its display name and its group size. The
// display names match cmd/netsim's, so server-submitted grids label output
// rows exactly as CLI sweeps do.
func (ts TopoSpec) Build() (Topology, error) {
	ts = ts.withDefaults()
	if ts.T < 1 || ts.G < 1 || ts.S < 1 || ts.D < 1 || ts.K < 1 || ts.N < 1 {
		return Topology{}, fmt.Errorf("sweep: topology spec %+v has a non-positive parameter", ts)
	}
	if n := ts.nodes(); n > sim.MaxNodes {
		return Topology{}, fmt.Errorf("sweep: %s topology has %s nodes, over the limit of %d", ts.Net, nodeCount(n), sim.MaxNodes)
	}
	if ts.Net == "stackii" && ts.D >= sim.MaxRouteOut {
		return Topology{}, fmt.Errorf("sweep: stackii degree %d gives %d out-couplers per node, over the limit of %d", ts.D, ts.D+1, sim.MaxRouteOut)
	}
	switch ts.Net {
	case "sk":
		nw := stackkautz.New(ts.S, ts.D, ts.K)
		return Topology{
			Name:      fmt.Sprintf("SK(%d,%d,%d) N=%d couplers=%d", ts.S, ts.D, ts.K, nw.N(), nw.Couplers()),
			Topo:      sim.NewStackTopology(nw.StackGraph()),
			GroupSize: ts.S,
		}, nil
	case "stackii":
		nw := stackkautz.NewII(ts.S, ts.D, ts.N)
		return Topology{
			Name:      fmt.Sprintf("stack-II(%d,%d,%d) N=%d couplers=%d", ts.S, ts.D, ts.N, nw.N(), nw.Couplers()),
			Topo:      sim.NewStackTopology(nw.StackGraph()),
			GroupSize: ts.S,
		}, nil
	case "pops":
		nw := pops.New(ts.T, ts.G)
		return Topology{
			Name:      fmt.Sprintf("POPS(%d,%d) N=%d couplers=%d", ts.T, ts.G, nw.N(), nw.Couplers()),
			Topo:      sim.NewStackTopology(nw.StackGraph()),
			GroupSize: ts.T,
		}, nil
	case "debruijn":
		b := kautz.NewDeBruijn(ts.D, ts.K)
		return Topology{
			Name: fmt.Sprintf("deBruijn(%d,%d) N=%d links=%d", ts.D, ts.K, b.N(), b.Digraph().M()),
			Topo: sim.NewPointToPointTopology(b.Digraph()),
		}, nil
	default:
		return Topology{}, fmt.Errorf("sweep: unknown topology family %q (want sk, stackii, pops or debruijn)", ts.Net)
	}
}

// nodeCap is where nodes saturates: far past sim.MaxNodes, and small
// enough that no product on the way overflows.
const nodeCap = 1 << 62

// nodes returns the node count of the spec's network, computed from its
// parameters without building it. Products saturate at nodeCap, so any
// parameters are safe; unknown families count 0.
func (ts TopoSpec) nodes() int {
	mul := func(a, b int) int {
		if a > nodeCap/b {
			return nodeCap
		}
		return a * b
	}
	pow := func(d, k int) int {
		p := 1
		for i := 0; i < k && p < nodeCap && d > 1; i++ {
			p = mul(p, d)
		}
		return p
	}
	switch ts.Net {
	case "sk": // s·(d+1)·d^(k-1): s nodes per vertex of Kautz KG(d,k)
		return mul(ts.S, mul(min(ts.D+1, nodeCap), pow(ts.D, ts.K-1)))
	case "stackii":
		return mul(ts.S, ts.N)
	case "pops":
		return mul(ts.T, ts.G)
	case "debruijn":
		return pow(ts.D, ts.K)
	}
	return 0
}

// nodeCount renders a count from nodes, marking a saturated one.
func nodeCount(n int) string {
	if n == nodeCap {
		return fmt.Sprintf("N>=%d", n)
	}
	return fmt.Sprintf("N=%d", n)
}
