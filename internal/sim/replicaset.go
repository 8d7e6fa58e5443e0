package sim

import (
	"fmt"
	"math/rand"

	"otisnet/internal/obs"
)

// ReplicaSet runs R replicas — independent scenarios — over one shared
// CompiledTopology. The paper's tables are built from many runs of the
// same network under varying seeds, loads and disciplines; a ReplicaSet
// executes such a batch with the mutable state of all replicas carved out
// of shared structure-of-arrays slabs ([replica][node] / [replica][coupler]
// order: queues, ring headers, active lists, head-of-line requests,
// touched-coupler and deflection bitmaps, round-robin cursors), while the
// immutable route/distance/CSR arrays are read by every replica from the
// one snapshot. Replicas may diverge freely — different seeds, loads,
// fault plans and workload kinds — and retire independently; results are
// bit-for-bit identical to running each scenario alone on an Engine,
// because both paths execute the identical replica core.
//
// Scenarios that share an injection stream — same traffic model, rate,
// seed and slot count, differing only in parameters the generator never
// sees (discipline, queue bound, wavelengths) — can be assigned one
// StreamGroup: the batch then draws the stream once per slot and fans the
// injections out to every member, which is bit-for-bit the stream each
// member would have drawn alone.
type ReplicaSet struct {
	base     *CompiledTopology
	baseTopo Topology
	// views caches private compiled snapshots for replicas that run a
	// dynamic (fault-wrapped) topology, keyed by topology identity, so a
	// worker reusing one wrapper per replica slot compiles it once.
	views map[Topology]*CompiledTopology

	reps  []replica
	specs []ReplicaSpec
	live  []int32 // indices of replicas still running
	slot  int     // lockstep slot clock (== every live replica's slot)

	groups []streamGroup
	// rngs pools one generator per stream-group slot across Configure
	// calls, with the same virgin-seed dedup Engine uses: re-arming a
	// batch re-seeds only the groups whose seed actually changed.
	rngs []groupRNG

	// Slab capacities: reps[i]'s state is carved out of shared backing
	// arrays allocated for slabCap replicas over an (n, m) topology.
	slabCap int
}

// ReplicaSpec describes one scenario slot of a batch.
type ReplicaSpec struct {
	// Topo, when non-nil, is this replica's private topology — typically a
	// fault wrapper around the set's base. It must have the same node and
	// coupler counts as the base; if it implements DynamicTopology its
	// events are polled every step, exactly as on an Engine. Nil means the
	// shared base.
	Topo    Topology
	Config  Config
	Traffic Traffic
	Slots   int
	Drain   int
	// StreamGroup shares one generated injection stream among every spec
	// of the batch carrying the same non-negative value; members must
	// agree on Traffic behavior, Config.Seed and Slots (the inputs of the
	// stream). Negative means a private stream.
	StreamGroup int
	// OnDeliver mirrors Engine.OnDeliver for this replica.
	OnDeliver func(msg Message, slot int)
}

// streamGroup is one shared injection stream: the replicas it feeds and
// the generator state that produces it.
type streamGroup struct {
	members []int32
	traffic Traffic
	slots   int
	buf     []Injection
}

// groupRNG is one pooled stream generator with seed-dedup state.
type groupRNG struct {
	rng       *rand.Rand
	seededFor int64
	virgin    bool
}

// NewReplicaSet compiles the base topology once. The base must be static:
// a dynamic topology mutates its tables in place, which replicas sharing
// the snapshot cannot tolerate — wrap faults per replica via
// ReplicaSpec.Topo instead.
func NewReplicaSet(base Topology) *ReplicaSet {
	if _, ok := base.(DynamicTopology); ok {
		panic("sim: ReplicaSet base topology must be static; pass dynamic wrappers per replica via ReplicaSpec.Topo")
	}
	return &ReplicaSet{
		base:     Compile(base),
		baseTopo: base,
		views:    map[Topology]*CompiledTopology{},
	}
}

// Len returns the number of replicas of the current batch.
func (rs *ReplicaSet) Len() int { return len(rs.specs) }

// Configure arms the set for a batch: one replica per spec, reset to slot
// zero under its config. State slabs, ring capacities, compiled views and
// group RNGs persist across calls, so re-arming a warmed set allocates
// nothing (beyond first-time growth).
func (rs *ReplicaSet) Configure(specs []ReplicaSpec) {
	if len(specs) > rs.slabCap {
		rs.grow(len(specs))
	}
	rs.specs = append(rs.specs[:0], specs...)
	rs.live = rs.live[:0]
	rs.slot = 0

	// Bind each replica to its snapshot and reset it.
	for i := range rs.specs {
		sp := &rs.specs[i]
		rp := &rs.reps[i]
		ct, dyn := rs.base, DynamicTopology(nil)
		if sp.Topo != nil {
			if sp.Topo.Nodes() != rs.base.n || sp.Topo.Couplers() != rs.base.m {
				panic(fmt.Sprintf("sim: replica topology is %dx%d, set base is %dx%d",
					sp.Topo.Nodes(), sp.Topo.Couplers(), rs.base.n, rs.base.m))
			}
			view, ok := rs.views[sp.Topo]
			if !ok {
				view = Compile(sp.Topo)
				rs.views[sp.Topo] = view
			}
			ct = view
			dyn, _ = sp.Topo.(DynamicTopology)
		}
		rp.attach(ct)
		rp.dyn = dyn
		rp.onDeliver = sp.OnDeliver
		// reset rewinds the dynamic topology and recompiles a dirty view;
		// the replica RNG is nil (streams come from the group generators),
		// so no per-replica seeding happens here.
		rp.reset(sp.Config)
		rs.live = append(rs.live, int32(i))
	}

	rs.buildGroups()
}

// grow (re)allocates the SoA slabs for at least r replicas. Existing ring
// buffers are abandoned with their slab; growth happens at most a few
// times over a set's life (batch sizes are fixed per sweep).
func (rs *ReplicaSet) grow(r int) {
	n, m := rs.base.n, rs.base.m
	nw, mw := (n+63)/64, (m+63)/64
	queues := make([]ring, r*n)
	rr := make([]int32, r*m)
	byCoupler := make([][]int32, r*m)
	granted := make([][]txRequest, r*m)
	touched := make([]uint64, r*mw)
	winners := make([]bool, r*n)
	reqMask := make([]uint64, r*nw)
	bestKey := make([]int32, r*m)
	grantSlot := make([]txRequest, r*m)
	activePos := make([]int32, r*n)
	headReq := make([]txRequest, r*n)
	active := make([]int32, r*n)

	reps := make([]replica, r)
	for i := range reps {
		rp := &reps[i]
		rp.queues = queues[i*n : (i+1)*n : (i+1)*n]
		rp.rr = rr[i*m : (i+1)*m : (i+1)*m]
		rp.byCoupler = byCoupler[i*m : (i+1)*m : (i+1)*m]
		rp.granted = granted[i*m : (i+1)*m : (i+1)*m]
		rp.touched = touched[i*mw : (i+1)*mw : (i+1)*mw]
		rp.winners = winners[i*n : (i+1)*n : (i+1)*n]
		rp.reqMask = reqMask[i*nw : (i+1)*nw : (i+1)*nw]
		rp.bestKey = bestKey[i*m : (i+1)*m : (i+1)*m]
		rp.grantSlot = grantSlot[i*m : (i+1)*m : (i+1)*m]
		rp.activePos = activePos[i*n : (i+1)*n : (i+1)*n]
		rp.headReq = headReq[i*n : (i+1)*n : (i+1)*n]
		rp.active = active[i*n : i*n : (i+1)*n]
		rp.obs.shard = obs.NextShard()
	}
	rs.reps = reps
	rs.slabCap = r
}

// buildGroups wires the batch's stream groups: specs sharing a
// non-negative StreamGroup form one group (validated to agree on seed and
// slot count); every other spec gets a private singleton group.
func (rs *ReplicaSet) buildGroups() {
	rs.groups = rs.groups[:0]
	byID := map[int]int{} // StreamGroup value -> group index
	for i := range rs.specs {
		sp := &rs.specs[i]
		gi := -1
		if sp.StreamGroup >= 0 {
			if j, ok := byID[sp.StreamGroup]; ok {
				gi = j
			}
		}
		if gi < 0 {
			// Reuse the slot's member/buffer capacity when re-arming.
			if len(rs.groups) < cap(rs.groups) {
				rs.groups = rs.groups[:len(rs.groups)+1]
			} else {
				rs.groups = append(rs.groups, streamGroup{})
			}
			gi = len(rs.groups) - 1
			g := &rs.groups[gi]
			g.members = g.members[:0]
			g.traffic = sp.Traffic
			g.slots = sp.Slots
			if sp.StreamGroup >= 0 {
				byID[sp.StreamGroup] = gi
			}
		} else {
			g := &rs.groups[gi]
			lead := &rs.specs[g.members[0]]
			if sp.Config.Seed != lead.Config.Seed || sp.Slots != lead.Slots {
				panic(fmt.Sprintf("sim: stream group %d members disagree on seed/slots (%d/%d vs %d/%d)",
					sp.StreamGroup, sp.Config.Seed, sp.Slots, lead.Config.Seed, lead.Slots))
			}
		}
		rs.groups[gi].members = append(rs.groups[gi].members, int32(i))
	}

	// Arm one pooled RNG per group, re-seeding only when needed.
	for len(rs.rngs) < len(rs.groups) {
		rs.rngs = append(rs.rngs, groupRNG{rng: rand.New(rand.NewSource(0)), seededFor: 0, virgin: true})
	}
	for gi := range rs.groups {
		seed := rs.specs[rs.groups[gi].members[0]].Config.Seed
		gr := &rs.rngs[gi]
		if !gr.virgin || gr.seededFor != seed {
			gr.rng.Seed(seed)
			gr.seededFor = seed
			gr.virgin = true
		}
	}
}

// StepAll advances every live replica by one slot. The shared snapshot is
// read by all of them; each replica's mutable state lives in its own slab
// section, so steps are independent and order-free.
func (rs *ReplicaSet) StepAll() {
	for _, ri := range rs.live {
		rs.reps[ri].step()
	}
	rs.slot++
}

// Inject enqueues a message at replica i's source node (manual drive; see
// RunAll for whole batches).
func (rs *ReplicaSet) Inject(i, src, dst int) { rs.reps[i].inject(src, dst) }

// Backlog returns replica i's queued message count, O(1).
func (rs *ReplicaSet) Backlog(i int) int { return rs.reps[i].backlog }

// Metrics returns replica i's accumulated metrics snapshot.
func (rs *ReplicaSet) Metrics(i int) Metrics { return rs.reps[i].metricsSnapshot() }

// RunAll executes the configured batch to completion: each slot, every
// stream group still in its generation phase draws one slot of traffic
// and fans it into its members, then every live replica steps. A replica
// retires — drops out of the stepping set, its state frozen for Metrics —
// exactly when its solo run would have returned: generation done and
// backlog empty, or drain budget spent. Retirement is checked before the
// step, so slot counts match solo runs including zero-slot scenarios.
func (rs *ReplicaSet) RunAll() {
	engineObs.batchRuns.Add(1)
	engineObs.batchSize.Observe(float64(len(rs.specs)))
	for {
		// Retire finished replicas (swap-remove keeps this O(live)). A
		// retiring replica flushes its scenario tallies into the registry,
		// exactly as its solo Engine.Run would have on return.
		for i := 0; i < len(rs.live); {
			ri := rs.live[i]
			sp := &rs.specs[ri]
			if rs.reps[ri].finished(sp.Slots, sp.Drain) {
				rs.reps[ri].flushObs()
				last := len(rs.live) - 1
				rs.live[i] = rs.live[last]
				rs.live = rs.live[:last]
				continue
			}
			i++
		}
		if len(rs.live) == 0 {
			return
		}
		// Generation phase: a group generates while the lockstep clock is
		// inside its slot budget. No member can retire before its
		// generation phase ends (finished requires slot >= slots), so the
		// full member list is live here.
		for gi := range rs.groups {
			g := &rs.groups[gi]
			if rs.slot >= g.slots {
				continue
			}
			gr := &rs.rngs[gi]
			gr.virgin = false
			g.buf = g.traffic.Generate(g.buf[:0], rs.slot, rs.base.n, gr.rng)
			// Fan the slot out one member at a time, so each replica's
			// queue slab is walked in one contiguous pass.
			for _, ri := range g.members {
				rp := &rs.reps[ri]
				for _, inj := range g.buf {
					rp.inject(inj.Src, inj.Dst)
				}
			}
		}
		rs.StepAll()
	}
}
