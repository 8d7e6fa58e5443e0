package sweep_test

// Service-layer tests: content-addressed scenario keys, shard split/merge
// equivalence against single-process runs, and cached execution (warm runs
// compute nothing, progress events cover every point, cancellation stops
// handing out work).

import (
	"context"
	"errors"
	"sync"
	"testing"

	"otisnet/internal/faults"
	"otisnet/internal/pops"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
	"otisnet/internal/sweep"
	"otisnet/internal/workload"
)

// serviceGrid is the small mixed grid (two topologies, fault and workload
// axes) the service-layer tests run: 2 topos x 2 rates x 2 seeds x 2
// workloads x 2 faults = 32 points.
func serviceGrid() sweep.Grid {
	return sweep.Grid{
		Topologies: []sweep.Topology{
			{Name: "SK(3,2,2)", Topo: sim.NewStackTopology(stackkautz.New(3, 2, 2).StackGraph()), GroupSize: 3},
			{Name: "POPS(4,2)", Topo: sim.NewStackTopology(pops.New(4, 2).StackGraph()), GroupSize: 4},
		},
		Rates: []float64{0.1, 0.3},
		Seeds: []int64{1, 2},
		Slots: 150,
		Drain: 150,
		Workloads: []workload.Spec{
			{},
			{Kind: workload.KindHotspot, HotGroup: 1, Fraction: 0.4},
		},
		Faults: []faults.Spec{
			{},
			{Kind: faults.KindNode, Count: 1, Slot: 40},
		},
	}
}

func TestCacheKeyIdentifiesTheComputation(t *testing.T) {
	points := serviceGrid().Points()
	seen := map[string]int{}
	for i, p := range points {
		key := p.CacheKey()
		if j, dup := seen[key]; dup {
			t.Fatalf("points %d and %d share key %s:\n%s\n%s", j, i, key, points[j].Label(), p.Label())
		}
		seen[key] = i
	}

	p := points[0]
	key := p.CacheKey()

	// The display-only topology name must not move the key: renaming the
	// topology changes no simulated bit.
	renamed := p
	renamed.Topology.Name = "production-fabric-7"
	if renamed.CacheKey() != key {
		t.Errorf("display-name change moved the key")
	}

	// Parameter spellings the engine cannot distinguish hash identically.
	w0, w1 := p, p
	w0.Wavelengths, w1.Wavelengths = 0, 1
	if w0.CacheKey() != w1.CacheKey() {
		t.Errorf("wavelengths 0 and 1 are the same engine but hash differently")
	}
	junkFault := p
	junkFault.Fault = faults.Spec{Kind: faults.KindCoupler, Count: 0, Slot: 999}
	if junkFault.CacheKey() != key {
		t.Errorf("count-0 fault spec is fault-free but hashed differently")
	}

	// Parameters the engine does read must move the key.
	for name, mutate := range map[string]func(*sweep.Scenario){
		"rate":  func(s *sweep.Scenario) { s.Rate += 0.05 },
		"seed":  func(s *sweep.Scenario) { s.Seed++ },
		"mode":  func(s *sweep.Scenario) { s.Mode = sweep.Deflection },
		"waves": func(s *sweep.Scenario) { s.Wavelengths = 2 },
		"maxq":  func(s *sweep.Scenario) { s.MaxQueue = 3 },
		"slots": func(s *sweep.Scenario) { s.Slots++ },
		"drain": func(s *sweep.Scenario) { s.Drain++ },
		"fault": func(s *sweep.Scenario) { s.Fault = faults.Spec{Kind: faults.KindNode, Count: 2, Slot: 40} },
		"workload": func(s *sweep.Scenario) {
			s.Workload = workload.Spec{Kind: workload.KindBursty, MeanOn: 10, MeanOff: 20}
		},
	} {
		q := p
		mutate(&q)
		if q.CacheKey() == key {
			t.Errorf("mutating %s did not move the key", name)
		}
	}
}

func TestTopologyFingerprintIsStructural(t *testing.T) {
	a := sim.NewStackTopology(stackkautz.New(3, 2, 2).StackGraph())
	b := sim.NewStackTopology(stackkautz.New(3, 2, 2).StackGraph())
	c := sim.NewStackTopology(pops.New(4, 2).StackGraph())
	if sweep.TopologyFingerprint(a) != sweep.TopologyFingerprint(b) {
		t.Errorf("independently built SK(3,2,2) instances fingerprint differently")
	}
	if sweep.TopologyFingerprint(a) == sweep.TopologyFingerprint(c) {
		t.Errorf("SK(3,2,2) and POPS(4,2) share a fingerprint")
	}
	// Memoized second call returns the same value.
	if sweep.TopologyFingerprint(a) != sweep.TopologyFingerprint(a) {
		t.Errorf("fingerprint memoization unstable")
	}
}

func TestShardedRunMergesBitForBit(t *testing.T) {
	points := serviceGrid().Points()
	want := sweep.Runner{}.Run(points)
	for _, shards := range []int{2, 3, 5} {
		var rows [][]sweep.ShardResult
		for si := 0; si < shards; si++ {
			shard, err := sweep.ShardPoints(points, si, shards)
			if err != nil {
				t.Fatal(err)
			}
			// Each shard on its own runner, as separate processes would.
			res := sweep.Runner{Workers: 2}.Run(shard.Points)
			rows = append(rows, shard.ShardResults(res))
		}
		got, err := sweep.MergeShardResults(points, rows...)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d shards: %d results, want %d", shards, len(got), len(want))
		}
		for i := range got {
			if got[i].Metrics != want[i].Metrics {
				t.Fatalf("%d shards: point %d (%s) differs:\nmerged %v\nsingle %v",
					shards, i, want[i].Scenario.Label(), got[i].Metrics, want[i].Metrics)
			}
		}
	}
}

func TestMergeShardResultsRejectsBadInput(t *testing.T) {
	points := serviceGrid().Points()[:4]
	shard, err := sweep.ShardPoints(points, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := shard.ShardResults(sweep.Runner{}.Run(points))

	if _, err := sweep.MergeShardResults(points, rows[:len(rows)-1]); err == nil {
		t.Errorf("missing point not rejected")
	}
	conflict := append(append([]sweep.ShardResult{}, rows...), rows[0])
	conflict[len(conflict)-1].Metrics.Delivered++
	if _, err := sweep.MergeShardResults(points, conflict); err == nil {
		t.Errorf("conflicting duplicate not rejected")
	}
	wrongKey := append([]sweep.ShardResult{}, rows...)
	wrongKey[1].Key = "deadbeef"
	if _, err := sweep.MergeShardResults(points, wrongKey); err == nil {
		t.Errorf("key mismatch not rejected")
	}
	overlap := [][]sweep.ShardResult{rows, rows[:2]} // identical duplicates are fine
	if _, err := sweep.MergeShardResults(points, overlap...); err != nil {
		t.Errorf("identical duplicates rejected: %v", err)
	}
	if _, err := sweep.ShardPoints(points, 3, 3); err == nil {
		t.Errorf("out-of-range shard index not rejected")
	}
	// A same-index duplicate claiming another key fails the same
	// per-point key check: every point has a key to compare against.
	dupKey := append(append([]sweep.ShardResult{}, rows...), rows[1])
	dupKey[len(dupKey)-1].Key = "bbbb2222"
	if _, err := sweep.MergeShardResults(points, dupKey); err == nil {
		t.Errorf("same-index duplicate with a different key not rejected")
	}
}

// mapCache is a minimal in-memory PointCache for tests.
type mapCache struct {
	mu      sync.Mutex
	m       map[string]sim.Metrics
	lookups map[string]int
	stores  int
}

func newMapCache() *mapCache {
	return &mapCache{m: map[string]sim.Metrics{}, lookups: map[string]int{}}
}

func (c *mapCache) Lookup(key string) (sim.Metrics, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups[key]++
	m, ok := c.m[key]
	return m, ok
}

func (c *mapCache) Store(key string, m sim.Metrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = m
	c.stores++
}

func TestRunCachedWarmRunComputesNothing(t *testing.T) {
	points := serviceGrid().Points()
	want := sweep.Runner{}.Run(points)

	cache := newMapCache()
	cold, err := sweep.Runner{}.RunCached(context.Background(), points, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cache.stores != len(points) {
		t.Fatalf("cold run stored %d of %d points", cache.stores, len(points))
	}

	var computed, cached int
	var mu sync.Mutex
	warm, err := sweep.Runner{}.RunCached(context.Background(), points, cache, func(i int, res sweep.Result, hit bool) {
		mu.Lock()
		if hit {
			cached++
		} else {
			computed++
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if computed != 0 || cached != len(points) {
		t.Fatalf("warm run computed %d, cached %d (want 0, %d)", computed, cached, len(points))
	}
	for i := range points {
		if cold[i].Metrics != want[i].Metrics || warm[i].Metrics != want[i].Metrics {
			t.Fatalf("point %d: cached results drifted from uncached run", i)
		}
	}
}

func TestRunCachedProgressCoversEveryPoint(t *testing.T) {
	points := serviceGrid().Points()
	var mu sync.Mutex
	seen := make([]int, len(points))
	_, err := sweep.Runner{Workers: 4}.RunCached(context.Background(), points, nil, func(i int, res sweep.Result, cached bool) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		if cached {
			t.Errorf("point %d reported as a cache hit without a cache", i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("point %d reported %d times", i, n)
		}
	}
}

func TestRunCachedCancellation(t *testing.T) {
	points := serviceGrid().Points()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sweep.Runner{}.RunCached(ctx, points, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
}
