package sim

// BurstTraffic is a test-only generator: the engine's tests and the
// differential fuzzers (package sim_test sees it through the test binary,
// like export_test.go) need a finite workload that injects several
// messages per node in one slot, which no workload.Spec kind does.

import "math/rand"

// BurstTraffic injects a fixed batch of random messages at slot 0 and
// nothing afterwards — used to measure drain time of a finite workload.
type BurstTraffic struct {
	Messages int
}

// Generate implements Traffic.
func (t BurstTraffic) Generate(buf []Injection, slot, n int, rng *rand.Rand) []Injection {
	if slot != 0 || n < 2 {
		return buf
	}
	for i := 0; i < t.Messages; i++ {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		buf = append(buf, Injection{Src: src, Dst: dst})
	}
	return buf
}
