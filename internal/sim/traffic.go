package sim

import "math/rand"

// Injection is a message creation request: src wants to send to dst.
type Injection struct {
	Src, Dst int
}

// Traffic generates the injections of each slot. UniformTraffic is the
// engine's one built-in model; every other pattern (OTIS transpose, group
// hotspot, bursty on/off, trace replay) is named by a workload.Spec and
// generated by internal/workload behind this interface.
type Traffic interface {
	// Generate appends the injections of one slot to buf and returns the
	// extended slice. n is the node count. Appending into a caller-owned
	// scratch slice keeps the simulation loop allocation-free once the
	// scratch has reached its high-water capacity.
	Generate(buf []Injection, slot, n int, rng *rand.Rand) []Injection
}

// UniformRater is implemented by traffic models whose Generate is exactly
// the uniform Bernoulli model at some per-node rate (bit-for-bit the RNG
// consumption of UniformTraffic). Engine.Run fuses such models into its
// injection loop — same stream, no intermediate Injection buffer — so only
// declare it on models with precisely that Generate behavior.
type UniformRater interface {
	UniformRate() float64
}

// UniformTraffic injects, per node per slot, a message with probability
// Rate, to a destination chosen uniformly among the other nodes. This is
// the canonical load model of the multihop lightwave literature.
type UniformTraffic struct {
	// Rate is the per-node injection probability per slot, in [0,1].
	Rate float64
}

// UniformRate implements UniformRater.
func (t UniformTraffic) UniformRate() float64 { return t.Rate }

// Generate implements Traffic.
func (t UniformTraffic) Generate(buf []Injection, _, n int, rng *rand.Rand) []Injection {
	for u := 0; u < n; u++ {
		if rng.Float64() < t.Rate {
			dst := rng.Intn(n - 1)
			if dst >= u {
				dst++
			}
			buf = append(buf, Injection{Src: u, Dst: dst})
		}
	}
	return buf
}
