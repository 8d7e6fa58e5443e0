package sweep_test

// Batched-dispatch equivalence: Runner.Replicas must change scheduling
// only — every result, cache interaction and progress event stays
// bit-for-bit what per-scenario dispatch produces, across batch sizes
// that divide the grid unevenly, exceed it, or come from the auto
// heuristic.

import (
	"context"
	"sync"
	"testing"

	"otisnet/internal/sweep"
)

func TestBatchedRunMatchesUnbatched(t *testing.T) {
	points := serviceGrid().Points()
	want := sweep.Runner{}.Run(points)
	for _, rep := range []int{2, 3, sweep.AutoReplicas, len(points) + 5} {
		for _, workers := range []int{1, 3} {
			got := sweep.Runner{Workers: workers, Replicas: rep}.Run(points)
			if len(got) != len(want) {
				t.Fatalf("replicas=%d workers=%d: %d results, want %d", rep, workers, len(got), len(want))
			}
			for i := range got {
				if got[i].Metrics != want[i].Metrics {
					t.Errorf("replicas=%d workers=%d point %d (%s):\nbatched   %v\nunbatched %v",
						rep, workers, i, points[i].Label(), got[i].Metrics, want[i].Metrics)
				}
			}
		}
	}
}

func TestBatchedRunCachedSemantics(t *testing.T) {
	points := serviceGrid().Points()
	want := sweep.Runner{}.Run(points)
	runner := sweep.Runner{Workers: 2, Replicas: 4}

	// Cold batched run: every hashable point computed and stored, progress
	// once per point.
	cache := newMapCache()
	var mu sync.Mutex
	seen := map[int]int{}
	cachedFlags := map[int]bool{}
	progress := func(i int, res sweep.Result, cached bool) {
		mu.Lock()
		defer mu.Unlock()
		seen[i]++
		cachedFlags[i] = cached
	}
	cold, err := runner.RunCached(context.Background(), points, cache, progress)
	if err != nil {
		t.Fatal(err)
	}
	if cache.stores != len(points) {
		t.Fatalf("cold batched run stored %d of %d points", cache.stores, len(points))
	}
	for i := range points {
		if cold[i].Metrics != want[i].Metrics {
			t.Fatalf("cold batched point %d diverged from unbatched", i)
		}
		if seen[i] != 1 || cachedFlags[i] {
			t.Fatalf("cold progress for point %d: calls=%d cached=%v", i, seen[i], cachedFlags[i])
		}
	}

	// Warm rerun: all hits, nothing recomputed, identical results.
	stores := cache.stores
	warm, err := runner.RunCached(context.Background(), points, cache, progress)
	if err != nil {
		t.Fatal(err)
	}
	if cache.stores != stores {
		t.Fatalf("warm batched run stored %d new points", cache.stores-stores)
	}
	for i := range points {
		if warm[i].Metrics != want[i].Metrics {
			t.Fatalf("warm batched point %d diverged", i)
		}
		if !cachedFlags[i] {
			t.Fatalf("warm progress for point %d not flagged cached", i)
		}
	}

	// Partially warm: seed a scattered half of the cache; the other half
	// is computed in (now ragged) batches and still matches.
	half := newMapCache()
	for i, p := range points {
		if i%2 == 0 {
			half.m[p.CacheKey()] = want[i].Metrics
		}
	}
	mixed, err := runner.RunCached(context.Background(), points, half, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if mixed[i].Metrics != want[i].Metrics {
			t.Fatalf("partially-warm batched point %d diverged", i)
		}
	}
}

func TestBatchedShardedRunMatches(t *testing.T) {
	points := serviceGrid().Points()
	want := sweep.Runner{}.Run(points)
	var rows [][]sweep.ShardResult
	for si := 0; si < 3; si++ {
		shard, err := sweep.ShardPoints(points, si, 3)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, shard.ShardResults(sweep.Runner{Workers: 2, Replicas: 3}.Run(shard.Points)))
	}
	merged, err := sweep.MergeShardResults(points, rows...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if merged[i].Metrics != want[i].Metrics {
			t.Fatalf("batched sharded point %d diverged from unbatched single-process run", i)
		}
	}
}
