package sweep

import (
	"strings"
	"testing"
)

// TestTopoSpecNodesMatchBuild checks the node count Build guards on
// against the networks it builds.
func TestTopoSpecNodesMatchBuild(t *testing.T) {
	for _, ts := range []TopoSpec{
		{Net: "sk"}, {Net: "sk", S: 1, D: 2, K: 1}, {Net: "sk", S: 8, D: 3, K: 4}, {Net: "sk", S: 2, D: 1, K: 5},
		{Net: "stackii"}, {Net: "stackii", S: 3, D: 2, N: 23},
		{Net: "pops"}, {Net: "pops", T: 9, G: 8},
		{Net: "debruijn", D: 2, K: 9}, {Net: "debruijn", D: 3, K: 4}, {Net: "debruijn", D: 1, K: 7},
	} {
		topo, err := ts.Build()
		if err != nil {
			t.Fatalf("%+v: %v", ts, err)
		}
		if got, want := ts.withDefaults().nodes(), topo.Topo.Nodes(); got != want {
			t.Errorf("%+v: nodes() = %d, built %d", ts, got, want)
		}
	}
}

// TestTopoSpecRejectsOversized: a network past sim.MaxNodes is refused
// before anything is built, with N and the limit named, whatever the
// parameters' size.
func TestTopoSpecRejectsOversized(t *testing.T) {
	for _, tc := range []struct {
		spec TopoSpec
		want string
	}{
		{TopoSpec{Net: "debruijn", D: 2, K: 16}, "N=65536 nodes, over the limit of 32768"},
		{TopoSpec{Net: "debruijn", D: 2, K: 1 << 40}, "N>=4611686018427387904 nodes"},
		{TopoSpec{Net: "sk", S: 9, D: 2, K: 12}, "N=55296 nodes"},
		{TopoSpec{Net: "sk", S: 1 << 62, D: 1 << 62, K: 3}, "over the limit of 32768"},
		{TopoSpec{Net: "stackii", S: 2, D: 2, N: 16385}, "N=32770 nodes"},
		{TopoSpec{Net: "pops", T: 1 << 40, G: 1 << 40}, "over the limit of 32768"},
		{TopoSpec{Net: "stackii", S: 1, D: 40000, N: 2}, "stackii degree 40000"},
	} {
		_, err := tc.spec.Build()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Build error %v, want one containing %q", tc.spec, err, tc.want)
		}
	}
	// The largest de Bruijn network under the limit is still accepted
	// by the guard (built elsewhere; here only the count is checked).
	if n := (TopoSpec{Net: "debruijn", D: 2, K: 15}).nodes(); n != 32768 {
		t.Fatalf("deBruijn(2,15) counts %d nodes, want 32768", n)
	}
}
