package sim

import (
	"math"
	"math/rand"
)

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

// Skip samples which nodes of one slot inject when each node injects
// independently with the same probability rate. Instead of one draw per
// node it draws the gap to the next injecting node from a geometric
// distribution, floor(log(1-U) / log1p(-rate)), so a slot costs one draw
// per injection plus one for the gap that runs past the last node. The
// geometric distribution is memoryless, so every (node, slot) still
// injects iid Bernoulli(rate). Build one Skip per slot; the gap restarts
// at node 0 each slot, which keeps Generate a stateless function of the
// slot and its RNG.
type Skip struct {
	// logq is log1p(-rate): 0 when nothing injects (rate <= 0 or NaN),
	// -Inf when every node injects (rate >= 1).
	logq float64
}

// NewSkip prepares the sampler for one slot at per-node probability rate.
func NewSkip(rate float64) Skip {
	if !(rate > 0) {
		return Skip{}
	}
	if rate >= 1 {
		return Skip{logq: math.Inf(-1)}
	}
	return Skip{logq: math.Log1p(-rate)}
}

// Next returns the first injecting node in [u, n), or n if none injects.
// Rates <= 0 (and NaN) and rates >= 1 decide without drawing, as does an
// empty range.
func (s Skip) Next(u, n int, rng *rand.Rand) int {
	switch {
	case u >= n || s.logq == 0:
		return n
	case math.IsInf(s.logq, -1):
		return u
	}
	// 1-U is in (0, 1], so the log is finite and the gap is >= 0. The
	// negated comparison also sends a NaN gap to "no injection".
	gap := math.Log(1-rng.Float64()) / s.logq
	if !(gap < float64(n-u)) {
		return n
	}
	return u + int(gap)
}

// AppendUniform appends one slot of uniform Bernoulli traffic to buf:
// each node injects with probability rate, to a destination chosen
// uniformly among the other n-1 nodes.
func AppendUniform(buf []Injection, n int, rate float64, rng *rand.Rand) []Injection {
	sk := NewSkip(rate)
	for u := sk.Next(0, n, rng); u < n; u = sk.Next(u+1, n, rng) {
		buf = append(buf, Injection{Src: u, Dst: UniformDst(u, n, rng)})
	}
	return buf
}

// UniformDst draws a destination uniformly among the n-1 nodes other
// than src.
func UniformDst(src, n int, rng *rand.Rand) int {
	dst := rng.Intn(n - 1)
	if dst >= src {
		dst++
	}
	return dst
}

// UniformTraffic injects, per node per slot, a message with probability
// Rate, to a destination chosen uniformly among the other nodes. This is
// the canonical load model of the multihop lightwave literature.
type UniformTraffic struct {
	// Rate is the per-node injection probability per slot, in [0,1].
	Rate float64
}

// Generate implements Traffic.
func (t UniformTraffic) Generate(buf []Injection, _, n int, rng *rand.Rand) []Injection {
	return AppendUniform(buf, n, t.Rate, rng)
}
