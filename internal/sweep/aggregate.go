package sweep

import (
	"math"

	"otisnet/internal/faults"
	"otisnet/internal/workload"
)

// Stat is a sample mean with its standard deviation (sample stddev, n-1;
// zero when fewer than two samples).
type Stat struct {
	Mean float64
	Std  float64
}

func newStat(xs []float64) Stat {
	if len(xs) == 0 {
		return Stat{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if len(xs) < 2 {
		return Stat{Mean: mean}
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return Stat{Mean: mean, Std: math.Sqrt(ss / float64(len(xs)-1))}
}

// PointKey identifies a curve point: everything a grid varies except the
// seed axis, which aggregation collapses.
type PointKey struct {
	Topology    string
	Rate        float64
	Mode        Mode
	Wavelengths int
	// Fault is the full fault spec (zero for fault-free points): keying by
	// the spec, not its label, keeps distinct specs that happen to share a
	// label (e.g. same shape, different pinned Seed) as separate points.
	Fault faults.Spec
	// Workload is the full workload spec (zero for uniform points), keyed
	// as a value for the same reason as Fault.
	Workload workload.Spec
}

// CurvePoint is one aggregated point of a saturation/throughput curve:
// statistics over the seeds that share a PointKey.
type CurvePoint struct {
	PointKey
	Seeds         int
	Throughput    Stat // delivered per slot
	PerNodeThr    Stat // delivered per slot per node
	Latency       Stat // mean delivery latency (slots)
	Hops          Stat // mean hops of delivered messages
	DeliveredFrac Stat // delivered / injected
	PeakQueue     Stat
	Deflections   Stat
	// Fault-axis statistics (all zero for fault-free points).
	Unroutable    Stat
	LostToFaults  Stat
	RecoverySlots Stat
}

// Aggregate groups results by PointKey (preserving first-appearance order)
// and reduces each group's metrics to mean/stddev over its seeds. Feed it
// the output of Runner.Run on a grid with several seeds per point to get
// curve points with error bars.
func Aggregate(results []Result) []CurvePoint {
	type group struct {
		order int
		runs  []Result
	}
	groups := make(map[PointKey]*group)
	var keys []PointKey
	for _, res := range results {
		s := res.Scenario
		key := PointKey{
			Topology:    s.Topology.Name,
			Rate:        s.Rate,
			Mode:        s.Mode,
			Wavelengths: s.Wavelengths,
			Fault:       s.Fault,
			Workload:    s.Workload,
		}
		g, ok := groups[key]
		if !ok {
			g = &group{order: len(keys)}
			groups[key] = g
			keys = append(keys, key)
		}
		g.runs = append(g.runs, res)
	}
	pts := make([]CurvePoint, len(keys))
	for i, key := range keys {
		g := groups[key]
		collect := func(f func(m Result) float64) Stat {
			xs := make([]float64, len(g.runs))
			for j, r := range g.runs {
				xs[j] = f(r)
			}
			return newStat(xs)
		}
		pts[i] = CurvePoint{
			PointKey: key,
			Seeds:    len(g.runs),
			Throughput: collect(func(r Result) float64 {
				return r.Metrics.Throughput()
			}),
			PerNodeThr: collect(func(r Result) float64 {
				return r.Metrics.Throughput() / float64(r.Scenario.Topology.Topo.Nodes())
			}),
			Latency: collect(func(r Result) float64 { return r.Metrics.AvgLatency() }),
			Hops:    collect(func(r Result) float64 { return r.Metrics.AvgHops() }),
			DeliveredFrac: collect(func(r Result) float64 {
				if r.Metrics.Injected == 0 {
					return 1
				}
				return float64(r.Metrics.Delivered) / float64(r.Metrics.Injected)
			}),
			PeakQueue:     collect(func(r Result) float64 { return float64(r.Metrics.PeakQueue) }),
			Deflections:   collect(func(r Result) float64 { return float64(r.Metrics.Deflections) }),
			Unroutable:    collect(func(r Result) float64 { return float64(r.Metrics.Unroutable) }),
			LostToFaults:  collect(func(r Result) float64 { return float64(r.Metrics.LostToFaults) }),
			RecoverySlots: collect(func(r Result) float64 { return float64(r.Metrics.RecoverySlots) }),
		}
	}
	return pts
}
