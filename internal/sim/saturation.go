package sim

// SaturationSearch locates the saturation load of a topology: the largest
// per-node uniform injection rate the network sustains, meaning it
// delivers at least the given fraction of injected traffic within the run
// (injection slots plus an equal drain period). Binary search over the
// rate with fixed seeds keeps the result deterministic, so concurrent
// callers (the sweep worker pool) reproduce sequential searches exactly.
// This reproduces the "saturation throughput" figure style of the
// multihop lightwave literature.
func SaturationSearch(topo Topology, slots int, sustainFraction float64, cfg Config) float64 {
	// One engine serves every probe of the binary search: Engine.Run resets
	// it per rate, so the topology is compiled and the queues allocated
	// once for the whole search instead of once per probe, with results
	// bit-for-bit identical to independent sim.Run calls.
	e := NewEngine(topo, cfg)
	sustains := func(rate float64) bool {
		m := e.Run(UniformTraffic{Rate: rate}, slots, slots, cfg)
		if m.Injected == 0 {
			return true
		}
		return float64(m.Delivered) >= sustainFraction*float64(m.Injected)
	}
	lo, hi := 0.0, 1.0
	if sustains(1.0) {
		return 1.0
	}
	for i := 0; i < 12; i++ {
		mid := (lo + hi) / 2
		if sustains(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
