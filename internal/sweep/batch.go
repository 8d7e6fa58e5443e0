package sweep

// Batched dispatch: instead of handing workers one scenario at a time,
// the runner groups grid points by TopologyFingerprint, orders each group
// so stream-siblings (points whose injection stream is identical — same
// workload, rate, seed and slot count, differing only in discipline,
// queue bound or wavelength count) sit adjacent, and chunks the result
// into batches of up to Replicas scenarios. A worker executes a batch on
// one sim.ReplicaSet over the shared compiled base: every replica's
// mutable state comes out of the set's structure-of-arrays slabs, stream
// siblings draw their injections once per slot, and fault scenarios get
// per-replica wrappers from a per-slot pool. Results are bit-for-bit
// identical to per-scenario runs — both paths execute the same replica
// core — so cache keys, journal contents and shard merges are unchanged;
// only cancellation granularity coarsens from point to batch.

import (
	"context"
	"sync"
	"time"

	"otisnet/internal/faults"
	"otisnet/internal/obs"
	"otisnet/internal/sim"
	"otisnet/internal/workload"
)

// AutoReplicas selects the batch-size heuristic: just enough replicas to
// keep every stream-sibling family in one batch, capped at
// maxAutoReplicas so the combined ring working set of a saturated batch
// stays cache-resident.
const AutoReplicas = -1

// maxAutoReplicas caps the auto heuristic. Batches step their replicas in
// lockstep, so the per-slot working set grows linearly with R; past a
// handful of saturated replicas the queues fall out of L2 and the shared
// route-table reads stop being the dominant traffic.
const maxAutoReplicas = 8

// replicas resolves the configured batch size for a point set.
func (r Runner) replicas(points []Scenario) int {
	if r.Replicas >= 0 {
		return r.Replicas
	}
	// Auto: the largest stream-sibling family, so every set of scenarios
	// that can share one injection stream lands in a single batch. Bigger
	// batches only dilute cache locality — the per-slot working set grows
	// with R while the sharing ratio stays fixed — so measured sweeps favor
	// the smallest R that captures the sharing (see BENCH_6.json).
	largest, counts := 0, map[streamKey]int{}
	for i := range points {
		k := points[i].stream()
		counts[k]++
		if counts[k] > largest {
			largest = counts[k]
		}
	}
	rep := largest
	if rep > maxAutoReplicas {
		rep = maxAutoReplicas
	}
	if rep < 2 {
		rep = 2
	}
	return rep
}

// streamKey identifies an injection stream: scenarios with equal keys
// consume bit-for-bit the same generated schedule, so a batch feeds them
// from one shared stream group.
type streamKey struct {
	workload  workload.Spec
	groupSize int
	rate      float64
	seed      int64
	slots     int
}

// stream returns the scenario's injection-stream identity.
func (p Scenario) stream() streamKey {
	return streamKey{
		workload: p.Workload, groupSize: p.Topology.GroupSize,
		rate: p.Rate, seed: p.Seed, slots: p.Slots,
	}
}

// planBatches chunks point indices into batches of at most rep scenarios,
// each batch over one topology fingerprint, with stream-siblings adjacent
// so they land in the same batch whenever the chunking allows. Order is
// deterministic: fingerprint groups in first-appearance order, streams
// within a group in first-appearance order.
func planBatches(points []Scenario, rep int) [][]int {
	// Fingerprint groups, first-appearance ordered.
	var fps []string
	byFP := map[string][]int{}
	for i := range points {
		fp := TopologyFingerprint(points[i].Topology.Topo)
		if _, ok := byFP[fp]; !ok {
			fps = append(fps, fp)
		}
		byFP[fp] = append(byFP[fp], i)
	}
	var batches [][]int
	for _, fp := range fps {
		idxs := byFP[fp]
		// Reorder so stream-siblings are adjacent, keys in
		// first-appearance order.
		var keys []streamKey
		byKey := map[streamKey][]int{}
		for _, i := range idxs {
			k := points[i].stream()
			if _, ok := byKey[k]; !ok {
				keys = append(keys, k)
			}
			byKey[k] = append(byKey[k], i)
		}
		flat := idxs[:0:0]
		for _, k := range keys {
			flat = append(flat, byKey[k]...)
		}
		for len(flat) > 0 {
			take := rep
			if take > len(flat) {
				take = len(flat)
			}
			batches = append(batches, flat[:take])
			flat = flat[take:]
		}
	}
	return batches
}

// runBatched is RunCached's batched dispatch path (Runner.Replicas > 1 or
// AutoReplicas). Cache lookups, stores and progress events keep per-point
// granularity; cancellation coarsens to per-batch (an in-flight batch
// finishes and is cached, unstarted batches are skipped).
func (r Runner) runBatched(ctx context.Context, points []Scenario, cache PointCache, progress Progress) ([]Result, error) {
	rep := r.replicas(points)
	batches := planBatches(points, rep)
	results := make([]Result, len(points))
	err := r.fanScopedCtx(ctx, len(batches), func() (func(int), func()) {
		w := &batchWorker{rep: rep, sh: obs.NextShard()}
		return func(bi int) { w.run(batches[bi], points, results, cache, progress) }, w.release
	})
	return results, err
}

// setPool recycles warmed batchSets across Runner invocations. A
// batchSet's dominant allocation cost is not the topology compile but
// the ring warm-up: every saturated replica's queue buffers double up
// from empty toward the sweep's high-water mark, and while
// ReplicaSet.Configure keeps those buffers across batches, a fresh
// Runner used to pay the whole warm-up again. Pooling per topology
// fingerprint carries the warmed storage across sweeps, so a process
// that sweeps the same structures repeatedly (sweepd, benchmarks,
// repeated CLI grids) allocates its ring chains once. Reuse is sound
// exactly because the fingerprint is content-addressed: equal
// fingerprints mean simulation-equivalent structure, and Configure
// re-arms every replica from its spec alone, so results stay
// bit-for-bit identical to a cold set.
var setPool struct {
	mu   sync.Mutex
	sets []batchSet
}

// maxPooledSets bounds the recycler so a process that touches many
// distinct topologies cannot accumulate unbounded warmed slabs; sets
// released beyond the cap are dropped for the GC.
const maxPooledSets = 16

// release returns the worker's warmed sets, ring and slab storage
// included, to the recycler.
func (w *batchWorker) release() {
	setPool.mu.Lock()
	for i := range w.sets {
		if len(setPool.sets) < maxPooledSets {
			setPool.sets = append(setPool.sets, w.sets[i])
		}
	}
	setPool.mu.Unlock()
	w.sets = nil
}

// batchWorker is one goroutine's reusable batched-simulation state: a
// ReplicaSet (plus fault-wrapper pool) per base fingerprint, and the
// per-batch assembly buffers, all preallocated once and reused so running
// a batch allocates nothing in steady state.
type batchWorker struct {
	rep  int
	sh   int // counter shard hint, one per worker goroutine
	sets []batchSet

	// Per-batch assembly scratch, reused across batches.
	specs  []sim.ReplicaSpec
	misses []int    // point index per configured replica slot
	keys   []string // cache key per configured replica slot ("" without a cache)
	gids   map[streamKey]int
}

// batchSet is the reusable state for one base fingerprint: the replica
// set compiled over the first-seen base topology and one fault wrapper
// per replica slot (SetPlan re-arms a wrapper; its compiled view inside
// the set is reused and recompiled only when a past batch dirtied it).
type batchSet struct {
	fp   string
	base sim.Topology
	rset *sim.ReplicaSet
	fts  []*faults.FaultedTopology
}

func (w *batchWorker) set(fp string, base sim.Topology) *batchSet {
	for i := range w.sets {
		if w.sets[i].fp == fp {
			return &w.sets[i]
		}
	}
	if bs, ok := takePooled(fp); ok {
		// A recycled set keeps its own base (and the fault wrappers over
		// it): equal fingerprints guarantee identical simulation, and the
		// wrappers' plans are regenerated per batch via SetPlan.
		for len(bs.fts) < w.rep {
			bs.fts = append(bs.fts, nil)
		}
		w.sets = append(w.sets, bs)
	} else {
		w.sets = append(w.sets, batchSet{
			fp: fp, base: base, rset: sim.NewReplicaSet(base), fts: make([]*faults.FaultedTopology, w.rep),
		})
	}
	return &w.sets[len(w.sets)-1]
}

// takePooled pops a recycled set for the fingerprint, if one is parked.
func takePooled(fp string) (batchSet, bool) {
	setPool.mu.Lock()
	defer setPool.mu.Unlock()
	for i := range setPool.sets {
		if setPool.sets[i].fp == fp {
			bs := setPool.sets[i]
			last := len(setPool.sets) - 1
			setPool.sets[i] = setPool.sets[last]
			setPool.sets[last] = batchSet{}
			setPool.sets = setPool.sets[:last]
			return bs, true
		}
	}
	return batchSet{}, false
}

// run executes one batch: cache hits are peeled off point by point, the
// misses are armed as replicas (stream-siblings sharing one group) and
// run to completion, and every computed point is stored and reported.
func (w *batchWorker) run(batch []int, points []Scenario, results []Result, cache PointCache, progress Progress) {
	w.specs = w.specs[:0]
	w.misses = w.misses[:0]
	w.keys = w.keys[:0]
	if w.gids == nil {
		w.gids = make(map[streamKey]int, w.rep)
	} else {
		clear(w.gids)
	}

	sweepObs.started.AddShard(w.sh, int64(len(batch)))
	var set *batchSet
	for _, pi := range batch {
		p := &points[pi]
		key := ""
		if cache != nil {
			key = p.CacheKey()
			if m, ok := cache.Lookup(key); ok {
				sweepObs.cached.AddShard(w.sh, 1)
				results[pi] = Result{Scenario: *p, Metrics: m}
				if progress != nil {
					progress(pi, results[pi], true)
				}
				continue
			}
		}
		if set == nil {
			set = w.set(TopologyFingerprint(p.Topology.Topo), p.Topology.Topo)
		}
		slot := len(w.specs)
		k := p.stream()
		gid, ok := w.gids[k]
		if !ok {
			gid = len(w.gids)
			w.gids[k] = gid
		}
		sp := sim.ReplicaSpec{
			Config:      p.Config(),
			Traffic:     p.traffic(),
			Slots:       p.Slots,
			Drain:       p.Drain,
			StreamGroup: gid,
		}
		if !p.Fault.IsZero() {
			ft := set.fts[slot]
			plan := p.Fault.Plan(set.base, p.Seed)
			if ft == nil {
				ft = faults.Wrap(set.base, plan)
				set.fts[slot] = ft
			} else {
				ft.SetPlan(plan)
			}
			sp.Topo = ft
		}
		w.specs = append(w.specs, sp)
		w.misses = append(w.misses, pi)
		w.keys = append(w.keys, key)
	}
	if len(w.specs) == 0 {
		return
	}

	sweepObs.batchSize.Observe(float64(len(w.specs)))
	t0 := time.Now()
	set.rset.Configure(w.specs)
	set.rset.RunAll()
	sweepObs.busyNS.AddShard(w.sh, time.Since(t0).Nanoseconds())
	sweepObs.completed.AddShard(w.sh, int64(len(w.misses)))

	for slot, pi := range w.misses {
		m := set.rset.Metrics(slot)
		if cache != nil {
			cache.Store(w.keys[slot], m)
		}
		results[pi] = Result{Scenario: points[pi], Metrics: m}
		if progress != nil {
			progress(pi, results[pi], false)
		}
	}
}
