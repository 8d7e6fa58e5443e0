package sweep

// Sharded grid execution. A grid's point list (Grid.Points, deterministic
// order) splits into disjoint shards that can run in separate processes;
// each shard records (global index, cache key, metrics) rows, and merging
// the shard rows back against the same point list reproduces the result
// slice of a single-process Runner.Run bit for bit — every scenario is
// deterministic given its seed, so equality of the scenario sets implies
// equality of the results, and the index carries the ordering.

import (
	"fmt"

	"otisnet/internal/sim"
)

// Shard is a deterministic slice of a grid: the scenarios of one shard and
// their global indices in the full point list.
type Shard struct {
	Indices []int
	Points  []Scenario
}

// ShardPoints splits points into the shard-th of shards strided subsets
// (point i belongs to shard i mod shards). Striding — rather than
// contiguous blocks — balances the axes across shards: the point order is
// topology-major, so blocks would pin whole topologies (with very
// different per-point costs) onto single shards.
func ShardPoints(points []Scenario, shard, shards int) (Shard, error) {
	if shards < 1 {
		return Shard{}, fmt.Errorf("sweep: shard count %d < 1", shards)
	}
	if shard < 0 || shard >= shards {
		return Shard{}, fmt.Errorf("sweep: shard index %d out of range [0,%d)", shard, shards)
	}
	var s Shard
	for i := shard; i < len(points); i += shards {
		s.Indices = append(s.Indices, i)
		s.Points = append(s.Points, points[i])
	}
	return s, nil
}

// ShardResult is one completed point of a shard run: the point's global
// index in the grid, its content-addressed cache key and its metrics.
// This is the row shard processes write (NDJSON), the merge step
// consumes, and the coordinator's worker protocol carries
// (internal/coordinator). Cached marks a row that was served from the
// result cache rather than computed — merge ignores it (cached metrics
// are bit-identical by construction), but it lets the coordinator's
// progress stream and the chaos tests distinguish journal-resumed points
// from recomputed ones.
type ShardResult struct {
	Index   int         `json:"index"`
	Key     string      `json:"key,omitempty"`
	Cached  bool        `json:"cached,omitempty"`
	Metrics sim.Metrics `json:"metrics"`
}

// ShardResults converts a shard's in-order results into merge rows.
func (s Shard) ShardResults(results []Result) []ShardResult {
	rows := make([]ShardResult, len(results))
	for i, r := range results {
		rows[i] = ShardResult{Index: s.Indices[i], Key: r.Scenario.CacheKey(), Metrics: r.Metrics}
	}
	return rows
}

// MergeShardResults reassembles shard rows into the full result slice for
// points (the same Grid.Points list the shards were cut from). Every index
// must be covered exactly once, and every row that carries a cache key
// must match the key of the point it claims — catching shards run against
// a different grid definition. Conflicting duplicates (same index,
// different metrics) are an error; identical duplicates (e.g. overlapping
// shard files after a resume, or a steal race in the coordinator) are
// tolerated.
func MergeShardResults(points []Scenario, shards ...[]ShardResult) ([]Result, error) {
	results := make([]Result, len(points))
	seen := make([]bool, len(points))
	for _, rows := range shards {
		for _, row := range rows {
			if row.Index < 0 || row.Index >= len(points) {
				return nil, fmt.Errorf("sweep: shard row index %d out of range (grid has %d points)", row.Index, len(points))
			}
			p := points[row.Index]
			if row.Key != "" {
				if key := p.CacheKey(); key != row.Key {
					return nil, fmt.Errorf("sweep: shard row %d key %.12s… does not match grid point key %.12s… (shard run against a different grid?)",
						row.Index, row.Key, key)
				}
			}
			if seen[row.Index] {
				if results[row.Index].Metrics != row.Metrics {
					return nil, fmt.Errorf("sweep: conflicting duplicate results for point %d", row.Index)
				}
				continue
			}
			seen[row.Index] = true
			results[row.Index] = Result{Scenario: p, Metrics: row.Metrics}
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("sweep: point %d (%s) missing from every shard", i, points[i].Label())
		}
	}
	return results, nil
}
