// Package workload provides the pluggable traffic sources the simulation
// engine replays: structured load patterns beyond the uniform random
// messages of sim.UniformTraffic. The multi-OPS evaluation literature the
// paper builds on compares topologies under permutation, hotspot and bursty
// load, not uniform traffic alone; this package supplies those patterns as
// deterministic seeded generators, plus a replay harness that drives the
// collective-communication schedules of internal/collective through the
// live engine (the dynamic counterpart of experiment T9).
//
// Every generator implements sim.Traffic and appends into the caller's
// scratch slice, so the whole sim.Run inner loop stays allocation-free in
// steady state under any workload kind (see TestWorkloadRunLoopAllocFree
// and BenchmarkStepAllocFree). Given the same seed, a generator produces
// the same injection stream bit for bit. Every Bernoulli generator here
// picks its senders with the shared geometric-skip sampler (sim.Skip,
// sim.AppendUniform): one draw per injection plus one per slot instead
// of one per node, with the same iid per-node law and one rate rule
// (<= 0 or NaN injects nothing, >= 1 injects everywhere). The uniform
// kind materializes sim.UniformTraffic itself (Spec.New), so uniform
// scenarios reproduce plain sim.Run calls bit for bit.
package workload

import (
	"fmt"
	"math/rand"

	"otisnet/internal/otis"
	"otisnet/internal/sim"
)

// Transpose injects, with probability Rate per node per slot, a message to
// the node's fixed OTIS transpose partner: node u sends to Perm[u], the
// flat-output position the OTIS optics wire u's flat-input position to.
// This is the permutation workload of the lightwave-network evaluations — a
// structured pattern with zero destination locality and maximal coupler
// reuse. Nodes that are their own partner stay silent.
type Transpose struct {
	Rate float64
	Perm []int
}

// NewTranspose builds the OTIS(groups, groupSize) transpose pattern over
// n = groups·groupSize nodes. A groupSize of 0 or 1 degenerates to
// OTIS(n,1), whose transpose is the reversal permutation u -> n-1-u — the
// natural fallback for topologies without group structure (point-to-point
// baselines).
func NewTranspose(rate float64, n, groupSize int) Transpose {
	if groupSize < 1 {
		groupSize = 1
	}
	if n%groupSize != 0 {
		panic(fmt.Sprintf("workload: %d nodes not divisible into groups of %d", n, groupSize))
	}
	return Transpose{Rate: rate, Perm: otis.New(n/groupSize, groupSize).Permutation()}
}

// Generate implements sim.Traffic.
func (t Transpose) Generate(buf []sim.Injection, _, n int, rng *rand.Rand) []sim.Injection {
	if len(t.Perm) != n {
		panic(fmt.Sprintf("workload: transpose over %d nodes used on %d-node network", len(t.Perm), n))
	}
	sk := sim.NewSkip(t.Rate)
	for u := sk.Next(0, n, rng); u < n; u = sk.Next(u+1, n, rng) {
		if t.Perm[u] != u {
			buf = append(buf, sim.Injection{Src: u, Dst: t.Perm[u]})
		}
	}
	return buf
}

// Hotspot is uniform traffic with tunable skew toward one group: with
// probability Fraction a message is redirected to a uniformly chosen member
// of the hot group, modeling server-style contention on one coupler
// neighborhood. Senders inside the hot group (and redirects that would be
// self-sends) fall back to a uniform destination, so every sender stays
// active. GroupSize 0 or 1 makes the hot group a single node. Group is
// taken modulo the network's group count, so one spec is safe across
// topologies of different scale in the same sweep.
//
// When n is not a multiple of GroupSize, the group count truncates to
// n/GroupSize: the tail n mod GroupSize nodes still send (and receive
// uniform fallback traffic) but belong to no group, so they are never hot
// destinations, and Group wraps at the truncated count. This is pinned
// deliberately (TestHotspotRemainderTailNeverHot) — every seeded stream
// on a ragged topology stays reproducible — rather than rejecting the
// remainder case and breaking sweeps that mix group-structured and flat
// topologies.
type Hotspot struct {
	Rate float64
	// Group is the hot group index; GroupSize its member count.
	Group     int
	GroupSize int
	// Fraction is the probability a message is skewed to the hot group.
	Fraction float64
}

// Generate implements sim.Traffic.
func (t Hotspot) Generate(buf []sim.Injection, _, n int, rng *rand.Rand) []sim.Injection {
	gs := t.GroupSize
	if gs < 1 || gs > n {
		gs = 1
	}
	groups := n / gs
	hotStart := ((t.Group % groups) + groups) % groups * gs
	sk := sim.NewSkip(t.Rate)
	for u := sk.Next(0, n, rng); u < n; u = sk.Next(u+1, n, rng) {
		dst := -1
		if u < hotStart || u >= hotStart+gs {
			if rng.Float64() < t.Fraction {
				dst = hotStart + rng.Intn(gs)
			}
		}
		if dst < 0 || dst == u {
			dst = sim.UniformDst(u, n, rng)
		}
		buf = append(buf, sim.Injection{Src: u, Dst: dst})
	}
	return buf
}

// Bursty modulates uniform load with a two-state on/off Markov process:
// state durations are geometric with means MeanOn and MeanOff slots, the
// whole network burst-synchronously injects at rate OnRate while on and
// OffRate while off. At most one RNG draw per slot advances the state,
// before the slot's geometric-skip draws, so the stream is a deterministic
// function of the seed. Bursty is stateful — use
// one value per engine (pointer receiver).
type Bursty struct {
	OnRate, OffRate float64
	MeanOn, MeanOff float64

	started bool
	off     bool
}

// Generate implements sim.Traffic.
func (t *Bursty) Generate(buf []sim.Injection, _, n int, rng *rand.Rand) []sim.Injection {
	if !t.started {
		t.started = true // bursts start in the on state
	} else if t.off {
		if t.MeanOff <= 1 || rng.Float64() < 1/t.MeanOff {
			t.off = false
		}
	} else {
		if t.MeanOn >= 1 && rng.Float64() < 1/t.MeanOn {
			t.off = true
		}
	}
	rate := t.OnRate
	if t.off {
		rate = t.OffRate
	}
	return sim.AppendUniform(buf, n, rate, rng)
}
