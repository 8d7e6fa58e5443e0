package sim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"otisnet/internal/obs"
)

// Message is an in-flight unicast message.
type Message struct {
	ID   int
	Src  int
	Dst  int
	Born int // injection slot
	Hops int
}

// Config controls a simulation run.
type Config struct {
	// Seed seeds the private RNG (deterministic runs).
	Seed int64
	// MaxQueue caps each node's FIFO; 0 means unbounded. Injections and
	// relays beyond the cap are dropped and counted.
	MaxQueue int
	// Deflection enables hot-potato routing: messages that lose coupler
	// arbitration are deflected onto any free coupler of their node instead
	// of waiting. With deflection, queues only hold locally injected
	// messages awaiting the first transmission.
	Deflection bool
	// Wavelengths is the number of wavelengths per coupler (WDM extension;
	// the paper's networks are single-wavelength). Each coupler carries up
	// to this many simultaneous messages per slot. 0 means 1.
	Wavelengths int
}

// wavelengths returns the effective per-coupler capacity.
func (c Config) wavelengths() int {
	if c.Wavelengths < 1 {
		return 1
	}
	return c.Wavelengths
}

// Metrics accumulates run statistics.
type Metrics struct {
	Slots        int
	Injected     int
	Delivered    int
	Dropped      int
	Deflections  int
	TotalLatency int // sum over delivered of (deliverySlot - Born)
	TotalHops    int // sum over delivered of hop count
	PeakQueue    int // max FIFO length observed
	Backlog      int // messages still queued at the end

	// Fault metrics (all zero on static topologies). Unroutable and
	// LostToFaults are sub-counts of Dropped, so the conservation invariant
	// Injected == Delivered + Dropped + Backlog is unchanged.
	Unroutable   int // dropped because no route to the destination existed
	LostToFaults int // dropped because their queue's node failed
	Reroutes     int // queued messages whose routing changed under them
	// RecoverySlots sums, over fault events that disturbed queued traffic,
	// the slots from the event until the backlog first returned to its
	// immediate post-event level — a time-to-recover measure of transient
	// disruption. Events nobody was routing through do not start the clock.
	RecoverySlots int
}

// AvgLatency returns mean delivery latency in slots (0 when nothing was
// delivered).
func (m Metrics) AvgLatency() float64 {
	if m.Delivered == 0 {
		return 0
	}
	return float64(m.TotalLatency) / float64(m.Delivered)
}

// AvgHops returns mean hop count of delivered messages.
func (m Metrics) AvgHops() float64 {
	if m.Delivered == 0 {
		return 0
	}
	return float64(m.TotalHops) / float64(m.Delivered)
}

// Throughput returns delivered messages per slot.
func (m Metrics) Throughput() float64 {
	if m.Slots == 0 {
		return 0
	}
	return float64(m.Delivered) / float64(m.Slots)
}

// String summarizes the metrics on one line. Fault counters appear only
// when a fault actually disturbed the run, so fault-free output is
// unchanged.
func (m Metrics) String() string {
	s := fmt.Sprintf("slots=%d injected=%d delivered=%d dropped=%d backlog=%d thr=%.3f/slot lat=%.2f hops=%.2f peakQ=%d defl=%d",
		m.Slots, m.Injected, m.Delivered, m.Dropped, m.Backlog,
		m.Throughput(), m.AvgLatency(), m.AvgHops(), m.PeakQueue, m.Deflections)
	if m.Unroutable > 0 || m.LostToFaults > 0 || m.Reroutes > 0 || m.RecoverySlots > 0 {
		s += fmt.Sprintf(" unroutable=%d lost=%d reroutes=%d recovery=%d",
			m.Unroutable, m.LostToFaults, m.Reroutes, m.RecoverySlots)
	}
	return s
}

// replica is the mutable half of a simulation: queues, cursors, scratch,
// metrics and the slot clock, stepping over an immutable CompiledTopology.
// It is the one engine core — Engine wraps exactly one replica, and
// ReplicaSet runs R of them (with slab-allocated state) over a shared
// snapshot. Inside step there are no Topology interface calls — routing is
// one load from a flat table whose delivers-here bit replaces the
// per-transmission head-set scan, and the coupler structure is read from
// CSR arrays. Steady-state slot cost is O(active nodes + touched
// couplers), not O(N + M): nodes with queued traffic live on an active
// list, and only couplers that saw a request or grant this slot are
// arbitrated, transmitted and cleared. The hot path is allocation-free
// once scratch high-water marks are reached, and reset re-arms the replica
// for another scenario without reallocating any of it.
type replica struct {
	// ct is the compiled snapshot this replica steps over; the fields below
	// through dist are aliases of its arrays, re-synced after topology
	// events (syncTables). Keeping local slice headers keeps the hot path
	// one indirection flat, exactly as when the arrays lived on the engine.
	ct *CompiledTopology

	cfg Config
	// rng drives traffic generation in run; replicas inside a ReplicaSet
	// draw from their stream group's RNG instead and may leave this nil.
	rng *rand.Rand
	// rngSeededFor dedups re-seeding: seeding regenerates the full
	// math/rand state vector, so reset skips it when the RNG is already
	// virgin for the requested seed (the NewEngine-then-Run path).
	rngSeededFor int64
	rngVirgin    bool

	// Compiled topology aliases (see ct).
	n, m      int
	outStart  []int32 // node u transmits on outList[outStart[u]:outStart[u]+outCount[u]]
	outCount  []int32
	outList   []int32
	headStart []int32 // coupler c is heard by headList[headStart[c]:headStart[c]+headCount[c]]
	headCount []int32
	headList  []int32
	route     []RouteEntry // row-major (u, dst) routing decisions
	dist      [][]int16    // dist[u][dst] for deflection choices
	// The out-list CSR route entries index into (see CompiledTopology).
	routeOutStart []int32
	routeOut      []int32

	queues []ring
	// rr holds per-coupler round-robin grant cursors for fairness.
	rr      []int32
	nextID  int
	slot    int
	backlog int // queued messages, tracked incrementally

	// active lists the nodes with a non-empty queue; activePos[u] is u's
	// index in it (-1 when idle). Order is arbitrary — every order-sensitive
	// consumer sorts its own working set — so activation and deactivation
	// are O(1) swap-removes.
	active    []int32
	activePos []int32
	// headReq[u] is the precompiled request of u's head-of-line message
	// (coupler < 0 when it is unroutable), valid while u is active. It is
	// recomputed when the head changes — enqueue to an empty queue,
	// dropFront leaving a survivor (markHead), topology events — so the
	// per-slot request scan reads one entry per active node instead of
	// re-deriving the route. With deferHeads (large route tables) markHead
	// only tags the entry stale, and step resolves it before anything
	// reads it.
	headReq    []txRequest
	deferHeads bool

	metrics Metrics

	// Reusable per-step scratch; only the entries touched this slot are
	// cleared, so an idle network steps in near-O(1).
	requests  []txRequest
	byCoupler [][]int32     // coupler -> request indices
	granted   [][]txRequest // coupler -> granted transmissions
	// touched is a bitmap of couplers with requests or grants this slot.
	// Scanning its words visits touched couplers in ascending id order —
	// the order transmission must happen in — for O(M/64 + touched) per
	// slot, cheaper than keeping a sorted list.
	touched []uint64
	winners []bool // node -> won arbitration this slot
	// reqMask is the deflection counterpart of touched: a bitmap of nodes
	// that requested this slot, scanned in word order so losers deflect in
	// ascending node id order without sorting. Maintained only when
	// deflection is on.
	reqMask []uint64
	// Single-wavelength fused arbitration: each touched coupler keeps its
	// current argmin grant in grantSlot[c] with its round-robin key in
	// bestKey[c]; both are valid only while the coupler's touched bit is
	// set, so they are never cleared.
	bestKey   []int32
	grantSlot []txRequest
	keys      []int       // arbitration scratch: round-robin sort keys
	injBuf    []Injection // run's traffic-generation scratch

	// dyn is non-nil when the topology injects fault/repair events; the
	// replica polls it for changes at the top of every step. An event marks
	// the compiled snapshot dirty (ct.dirty), so reset only re-syncs it
	// when something changed.
	dyn DynamicTopology
	// Recovery tracking: while recovering, backlog has not yet returned to
	// recoverBaseline (its level right after the disrupting event).
	recovering      bool
	recoverStart    int
	recoverBaseline int

	// onDeliver mirrors Engine.OnDeliver (and ReplicaSpec.OnDeliver):
	// invoked per delivered message with its final hop count and slot.
	onDeliver func(msg Message, slot int)

	// obs holds the scenario's local observability tallies (plain memory,
	// single writer), flushed into the shared registry once per completed
	// run; see obs.go for the overhead contract.
	obs obsState
	// trace, when non-nil, receives sampled per-slot NDJSON events;
	// traceSlot caches "this slot is sampled" so hot emission sites test
	// one bool. Both stay nil/false in normal (untraced) runs.
	trace     *obs.Trace
	traceSlot bool
}

// attach points the replica at a compiled snapshot.
func (e *replica) attach(ct *CompiledTopology) {
	e.ct = ct
	e.n, e.m = ct.n, ct.m
	e.deferHeads = ct.n*ct.n >= deferHeadsMinEntries
	e.syncTables()
}

// syncTables re-reads the table aliases from the snapshot. Needed after
// any recompile, because an exotic relayout may reallocate the CSR lists.
func (e *replica) syncTables() {
	ct := e.ct
	e.outStart, e.outCount, e.outList = ct.outStart, ct.outCount, ct.outList
	e.headStart, e.headCount, e.headList = ct.headStart, ct.headCount, ct.headList
	e.route, e.dist = ct.route, ct.dist
	e.routeOutStart, e.routeOut = ct.routeOutStart, ct.routeOut
}

// allocState allocates the replica's private per-node/per-coupler state
// (the Engine path; ReplicaSet carves the same fields out of shared
// slabs instead).
func (e *replica) allocState() {
	e.queues = make([]ring, e.n)
	e.rr = make([]int32, e.m)
	e.byCoupler = make([][]int32, e.m)
	e.granted = make([][]txRequest, e.m)
	e.touched = make([]uint64, (e.m+63)/64)
	e.winners = make([]bool, e.n)
	e.reqMask = make([]uint64, (e.n+63)/64)
	e.bestKey = make([]int32, e.m)
	e.grantSlot = make([]txRequest, e.m)
	e.activePos = make([]int32, e.n)
	e.headReq = make([]txRequest, e.n)
	e.obs.shard = obs.NextShard()
}

// reset re-arms the replica for a fresh scenario under cfg: queues,
// cursors, metrics, the RNG and the slot clock return to their initial
// state while every buffer (rings, scratch, compiled snapshot) keeps its
// capacity, so repeated scenarios on one replica allocate nothing. A run
// after reset is bit-for-bit identical to a run on a newly constructed
// engine. Dynamic topologies are rewound to their pre-event state.
func (e *replica) reset(cfg Config) {
	e.cfg = cfg
	if e.rng != nil && (!e.rngVirgin || e.rngSeededFor != cfg.Seed) {
		e.rng.Seed(cfg.Seed)
		e.rngSeededFor = cfg.Seed
		e.rngVirgin = true
	}
	for i := range e.queues {
		e.queues[i].reset()
	}
	for i := range e.rr {
		e.rr[i] = 0
	}
	for i := range e.winners {
		e.winners[i] = false
	}
	for i := range e.activePos {
		e.activePos[i] = -1
	}
	e.active = e.active[:0]
	// step leaves byCoupler/granted empty and the touched bitmap zero;
	// clearing the bitmap here is defense against a hypothetical aborted
	// slot, not a per-scenario cost that matters.
	for i := range e.touched {
		e.touched[i] = 0
	}
	for i := range e.reqMask {
		e.reqMask[i] = 0
	}
	e.requests = e.requests[:0]
	e.nextID, e.slot, e.backlog = 0, 0, 0
	e.metrics = Metrics{}
	e.recovering = false
	// Discard unflushed tallies from an abandoned manual-stepping session;
	// completed runs flush (and re-zero) them before the next reset.
	e.obs.activeSum, e.obs.touchedSum, e.obs.qDepthSum = 0, 0, 0
	e.obs.qDepth = [qDepthBuckets]int64{}
	e.traceSlot = false
	if e.dyn != nil {
		e.dyn.Reset()
		if e.ct.dirty {
			e.ct.recompileDynamic()
			e.ct.dirty = false
			e.syncTables()
		}
	}
}

// metricsSnapshot returns the accumulated metrics, with Backlog and Slots
// refreshed. Backlog is tracked incrementally, so this is O(1). A recovery
// still in progress contributes its elapsed slots.
func (e *replica) metricsSnapshot() Metrics {
	m := e.metrics
	m.Slots = e.slot
	m.Backlog = e.backlog
	if e.recovering {
		m.RecoverySlots += e.slot - e.recoverStart
	}
	return m
}

// inject enqueues a message at its source, honoring MaxQueue.
func (e *replica) inject(src, dst int) {
	if src == dst {
		return
	}
	e.metrics.Injected++
	e.enqueue(src, qmsg{id: int32(e.nextID), src: int32(src), dst: int32(dst), born: int32(e.slot)})
	e.nextID++
}

func (e *replica) enqueue(node int, msg qmsg) {
	q := &e.queues[node]
	if e.cfg.MaxQueue > 0 && q.len() >= e.cfg.MaxQueue {
		e.metrics.Dropped++
		return
	}
	q.push(msg)
	e.backlog++
	d := q.len()
	// Queue-depth histogram tally: a bits.Len bucket pick and two plain
	// adds on replica-local memory, published only at scenario flush.
	e.obs.qDepth[qDepthBucket(d)]++
	e.obs.qDepthSum += int64(d)
	if d > e.metrics.PeakQueue {
		e.metrics.PeakQueue = d
	}
	if d == 1 {
		e.activePos[node] = int32(len(e.active))
		e.active = append(e.active, int32(node))
		e.markHead(node, msg.dst)
	}
}

// staleHead is the coupler of a headReq entry whose route lookup is still
// pending; its nextHop field holds the head message's destination.
const staleHead = -2

// deferHeadsMinEntries is the route-table size from which head lookups are
// deferred (deferHeads): 2^18 entries, 1 MiB of 4-byte route entries
// (n ≥ 512), about a typical L2 cache. The threshold is counted in entries,
// not bytes, so deBruijn(2,9) still defers on its own. A variable only so
// the differential tests can lower it.
var deferHeadsMinEntries = 1 << 18

// markHead records that node's head-of-line message is now one bound for
// dst. On large route tables (deferHeads) the lookup is deferred to the
// resolveStaleHeads pass that opens the next step: there each lookup
// misses cache, and the transmission loop that changes heads would stall
// on them one by one, while the tight resolve loop lets the loads of many
// nodes overlap. Small tables stay cache-resident, and there the lookup is
// done at once.
func (e *replica) markHead(node int, dst int32) {
	if e.deferHeads {
		e.headReq[node] = txRequest{node: int32(node), coupler: staleHead, nextHop: dst}
		return
	}
	e.resolveHead(node, dst)
}

// resolveHead sets node's head-of-line request, for a message bound for
// dst, from the route table, looking the entry's coupler index up in the
// decode CSR.
func (e *replica) resolveHead(node int, dst int32) {
	r := e.route[node*e.n+int(dst)]
	if r == NoRoute {
		e.headReq[node] = txRequest{node: int32(node), coupler: -1}
		return
	}
	e.headReq[node] = txRequest{
		node:     int32(node),
		coupler:  e.routeOut[e.routeOutStart[node]+int32(r&routeOutMask)],
		nextHop:  int32(r >> routeOutBits & routeHopMask),
		delivers: r&deliverBit != 0,
	}
}

// resolveStaleHeads looks up every head marked stale since the last step.
// It runs first in step, before fault events, so each head reads the same
// table a lookup at marking time would have read, and every later reader
// of headReq — the request scans and the masked refresh in
// applyTopologyChange — sees only fresh requests.
func (e *replica) resolveStaleHeads() {
	for _, u := range e.active {
		if r := e.headReq[u]; r.coupler == staleHead {
			e.resolveHead(int(u), r.nextHop)
		}
	}
}

// dropFront discards the head-of-line message at node without copying it
// out — consumers read the fields they need through front() first — and
// keeps backlog and the active list in sync. The emptied-queue bookkeeping
// lives in deactivate so dropFront stays within the inlining budget of the
// Phase 4 loop.
func (e *replica) dropFront(node int) {
	e.backlog--
	q := &e.queues[node]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	if q.n == 0 {
		e.deactivate(node)
	} else {
		e.markHead(node, q.buf[q.head].dst)
	}
}

// deactivate swap-removes a now-idle node from the active list, O(1).
func (e *replica) deactivate(node int) {
	p := e.activePos[node]
	last := int32(len(e.active) - 1)
	moved := e.active[last]
	e.active[p] = moved
	e.activePos[moved] = p
	e.active = e.active[:last]
	e.activePos[node] = -1
}

// step advances the simulation by one slot: fault events, arbitration,
// transmission, delivery or relay. No Topology interface calls and no
// allocations happen here in steady state; per-slot work is proportional
// to the active nodes and touched couplers (plus an O(M/64 + N/64)
// bitmap-word scan), not to N or M. The single-wavelength configuration —
// the paper's networks — takes a fused arbitration path with no
// per-request list bookkeeping at all; multi-wavelength couplers go
// through the general candidate-sorting path.
func (e *replica) step() {
	if e.deferHeads {
		e.resolveStaleHeads()
	}
	// Phase 0: apply fault/repair events scheduled for this slot, purging
	// queues stranded on failed nodes and counting re-routed messages.
	if e.dyn != nil {
		if ch := e.dyn.Advance(e.slot); ch.Changed {
			e.applyTopologyChange(ch)
		}
	}
	// Active-node occupancy tally (one add on local memory per slot) and
	// the sampled-slot trace gate (false for the life of untraced runs).
	e.obs.activeSum += int64(len(e.active))
	if e.trace != nil {
		e.traceSlot = e.traceSampled()
	}

	if e.cfg.Wavelengths <= 1 {
		e.stepSingleWavelength()
	} else {
		e.stepMultiWavelength()
	}

	if e.traceSlot {
		e.emitTraceSlot()
	}
	e.slot++
	if e.recovering && e.backlog <= e.recoverBaseline {
		e.metrics.RecoverySlots += e.slot - e.recoverStart
		e.recovering = false
	}
}

// stepSingleWavelength is the W = 1 hot path. Arbitration is an argmin
// over each coupler's candidates by round-robin key, so Phase 1 folds it
// in incrementally: each coupler keeps one tentative grant (grantSlot,
// gated by the touched bitmap), and no request or candidate list is built.
func (e *replica) stepSingleWavelength() {
	// Phase 1 + 2a: requests with incremental per-coupler arbitration. The
	// active list replaces the full O(N) queue scan; its order is
	// irrelevant because the argmin and every later phase order their own
	// work.
	n32 := int32(e.n)
	defl := e.cfg.Deflection
	for i := 0; i < len(e.active); {
		u := int(e.active[i])
		r := e.headReq[u]
		if r.coupler < 0 {
			// Unroutable: on the static, strongly connected topologies this
			// cannot happen; under faults it means the destination (or the
			// queue's own node) is cut off. Count-drop. The drop may
			// swap-remove u from the active slot we are standing on, in
			// which case the moved node is processed at the same index.
			e.dropFront(u)
			e.metrics.Dropped++
			e.metrics.Unroutable++
			if e.activePos[u] >= 0 {
				i++
			}
			continue
		}
		c := r.coupler
		// Round-robin key of node u on coupler c: (u - cursor) mod n via a
		// conditional add (both operands are in [0, n)).
		key := int32(u) - e.rr[c]
		if key < 0 {
			key += n32
		}
		wIdx, bit := c>>6, uint64(1)<<(c&63)
		if e.touched[wIdx]&bit == 0 {
			e.touched[wIdx] |= bit
			e.bestKey[c] = key
			e.grantSlot[c] = r
		} else if key < e.bestKey[c] {
			e.bestKey[c] = key
			e.grantSlot[c] = r
		}
		if defl {
			e.reqMask[u>>6] |= 1 << (u & 63)
		}
		i++
	}

	// Phase 2b + 3 (deflection only). Without deflection the winners set is
	// never read — every arbitration outcome already sits in grantSlot —
	// so both the winner-marking scan and its cleanup are skipped entirely
	// and the round-robin cursors advance in Phase 4 instead (they are not
	// read again until the next slot).
	if defl {
		// Finalize the winners and advance the round-robin cursors (the
		// cursors must stay fixed while keys are being computed above, and
		// only request-carrying couplers move them — deflection grants
		// below do not).
		for wi, word := range e.touched {
			for word != 0 {
				c := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				r := e.grantSlot[c]
				e.winners[r.node] = true
				e.rr[c] = rrNext(r.node, n32)
			}
		}

		// Losers grab any coupler of their node that carries no grant yet;
		// the message is deflected toward the head node closest to its
		// destination. Losers act in ascending node id order — the order
		// the legacy full-scan engine implied — which the requested-node
		// bitmap scan yields directly; its words are consumed (zeroed) as
		// the scan goes.
		for wi := range e.reqMask {
			word := e.reqMask[wi]
			if word == 0 {
				continue
			}
			e.reqMask[wi] = 0
			for word != 0 {
				u := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if e.winners[u] {
					continue
				}
				msg := e.queues[u].front()
				ob, oc := e.outStart[u], e.outCount[u]
				for oi := ob; oi < ob+oc; oi++ {
					c := int(e.outList[oi])
					wIdx, bit := c>>6, uint64(1)<<(c&63)
					if e.touched[wIdx]&bit != 0 {
						continue // already carries this slot's one grant
					}
					bestHop, delivers := e.deflectTarget(c, int(msg.dst))
					if bestHop < 0 {
						continue
					}
					e.touched[wIdx] |= bit
					e.grantSlot[c] = txRequest{node: int32(u), coupler: int32(c), nextHop: bestHop, delivers: delivers}
					e.winners[u] = true
					e.metrics.Deflections++
					break
				}
			}
		}
	}

	// Phase 4: transmissions, in ascending coupler order — the bitmap word
	// scan yields exactly that order, so deliveries and relays interleave
	// as a full coupler scan would. The precompiled delivers-here bit
	// replaces the per-transmission head-set scan. With deflection the
	// winners set is cleared as its grants are consumed; without it the
	// round-robin cursors advance here (every touched coupler carries an
	// arbitration grant in that case).
	for wi := range e.touched {
		word := e.touched[wi]
		if word == 0 {
			continue
		}
		e.touched[wi] = 0
		e.obs.touchedSum += int64(bits.OnesCount64(word))
		for word != 0 {
			c := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			r := e.grantSlot[c]
			if defl {
				e.winners[r.node] = false
			} else {
				e.rr[c] = rrNext(r.node, n32)
			}
			e.transmit(r)
		}
	}
}

// stepMultiWavelength is the general W > 1 path: each touched coupler
// collects its full candidate list, sorts it by precomputed round-robin
// keys and grants the first W senders.
func (e *replica) stepMultiWavelength() {
	// Phase 1: each node with a queued message requests the coupler its
	// precompiled route entry names for the head-of-line message.
	e.requests = e.requests[:0]
	n32 := int32(e.n)
	defl := e.cfg.Deflection
	for i := 0; i < len(e.active); {
		u := int(e.active[i])
		r := e.headReq[u]
		if r.coupler < 0 {
			e.dropFront(u)
			e.metrics.Dropped++
			e.metrics.Unroutable++
			if e.activePos[u] >= 0 {
				i++
			}
			continue
		}
		c := r.coupler
		e.requests = append(e.requests, r)
		e.touched[c>>6] |= 1 << (c & 63)
		if defl {
			e.reqMask[u>>6] |= 1 << (u & 63)
		}
		e.byCoupler[c] = append(e.byCoupler[c], int32(len(e.requests)-1))
		i++
	}

	// Phase 2: per-coupler arbitration — round-robin over node ids so no
	// node starves; each coupler grants up to W senders. Only couplers
	// that actually saw a request are visited; per-coupler outcomes are
	// independent, so the visit order does not matter.
	w := e.cfg.wavelengths()
	for wi, word := range e.touched {
		for word != 0 {
			c := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			idxs := e.byCoupler[c]
			if len(idxs) == 1 {
				r := e.requests[idxs[0]]
				e.granted[c] = append(e.granted[c], r)
				e.winners[r.node] = true
				e.rr[c] = rrNext(r.node, n32)
				continue
			}
			cursor := e.rr[c]
			e.keys = e.keys[:0]
			for _, ri := range idxs {
				k := e.requests[ri].node - cursor
				if k < 0 {
					k += n32
				}
				e.keys = append(e.keys, int(k))
			}
			sortByRRKey(idxs, e.keys)
			take := w
			if take > len(idxs) {
				take = len(idxs)
			}
			for _, ri := range idxs[:take] {
				r := e.requests[ri]
				e.granted[c] = append(e.granted[c], r)
				e.winners[r.node] = true
			}
			e.rr[c] = rrNext(e.requests[idxs[take-1]].node, n32)
		}
	}

	// Phase 3 (deflection only): as in the single-wavelength path, but a
	// coupler is free while it holds fewer than W grants.
	if defl {
		for wi := range e.reqMask {
			word := e.reqMask[wi]
			if word == 0 {
				continue
			}
			e.reqMask[wi] = 0
			for word != 0 {
				u := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if e.winners[u] {
					continue
				}
				msg := e.queues[u].front()
				ob, oc := e.outStart[u], e.outCount[u]
				for oi := ob; oi < ob+oc; oi++ {
					c := int(e.outList[oi])
					if len(e.granted[c]) >= w {
						continue
					}
					bestHop, delivers := e.deflectTarget(c, int(msg.dst))
					if bestHop < 0 {
						continue
					}
					e.touched[c>>6] |= 1 << (c & 63)
					e.granted[c] = append(e.granted[c], txRequest{
						node: int32(u), coupler: int32(c), nextHop: bestHop, delivers: delivers,
					})
					e.winners[u] = true
					e.metrics.Deflections++
					break
				}
			}
		}
	}

	// Phase 4: transmissions in ascending coupler order; each coupler's
	// candidate and grant scratch is cleared as it is consumed.
	for wi := range e.touched {
		word := e.touched[wi]
		if word == 0 {
			continue
		}
		e.touched[wi] = 0
		e.obs.touchedSum += int64(bits.OnesCount64(word))
		for word != 0 {
			c := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			for _, r := range e.granted[c] {
				e.winners[r.node] = false
				e.transmit(r)
			}
			e.byCoupler[c] = e.byCoupler[c][:0]
			e.granted[c] = e.granted[c][:0]
		}
	}
}

// deflectTarget scans coupler c's compiled head set for the live head
// closest to dst (the deflection target), reporting whether dst itself
// hears the coupler. bestHop is -1 when no head has a live path to dst.
// Shared by both step paths so the deflection tie-breaking, the delivers
// check and the d >= 0 liveness guard cannot drift apart.
func (e *replica) deflectTarget(c, dst int) (bestHop int32, delivers bool) {
	bestHop, bestDist := int32(-1), 1<<30
	hb, hc := e.headStart[c], e.headCount[c]
	for hi := hb; hi < hb+hc; hi++ {
		h := e.headList[hi]
		if int(h) == dst {
			delivers = true
		}
		if d := int(e.dist[h][dst]); d >= 0 && d < bestDist {
			bestDist = d
			bestHop = h
		}
	}
	return bestHop, delivers
}

// transmit executes one granted transmission: the sender pops its
// head-of-line message, which is delivered if the destination hears the
// coupler (the precompiled delivers bit) and relayed to the chosen next
// hop otherwise.
func (e *replica) transmit(r txRequest) {
	src := int(r.node)
	msg := e.queues[src].front()
	if r.delivers {
		// Read the delivered message in place; no copy leaves the ring.
		hops := int(msg.hops) + 1
		e.metrics.Delivered++
		e.metrics.TotalLatency += e.slot + 1 - int(msg.born)
		e.metrics.TotalHops += hops
		if e.onDeliver != nil {
			e.onDeliver(Message{
				ID: int(msg.id), Src: int(msg.src), Dst: int(msg.dst),
				Born: int(msg.born), Hops: hops,
			}, e.slot+1)
		}
		if e.traceSlot {
			e.trace.Emit(TraceDeliverEvent{
				Kind: "deliver", Slot: e.slot + 1,
				ID: int(msg.id), Src: int(msg.src), Dst: int(msg.dst),
				Born: int(msg.born), Hops: hops,
			})
		}
		e.dropFront(src)
	} else {
		// One ring-to-ring copy; dropping the source slot first mirrors
		// the legacy dequeue-then-enqueue order (it matters when a
		// deflection relays a message back onto its own bounded queue).
		m := *msg
		m.hops++
		e.dropFront(src)
		e.enqueue(int(r.nextHop), m)
	}
}

// applyTopologyChange reacts to a fault/repair batch: queues at nodes that
// just failed are purged (LostToFaults), the compiled structure arrays are
// re-synced (borrowed route/distance tables were already repaired in place
// by the topology, row by row), and surviving queued messages whose
// routing decision changed to another live path are counted as Reroutes —
// with table routing they silently follow the new path at their next
// transmission (messages left without any route are not reroutes; they
// surface as Unroutable when they reach the head of their queue).
func (e *replica) applyTopologyChange(ch TopologyChange) {
	e.ct.dirty = true
	disrupted := false
	for _, u := range ch.FailedNodes {
		for e.queues[u].len() > 0 {
			e.dropFront(u)
			e.metrics.Dropped++
			e.metrics.LostToFaults++
			disrupted = true
		}
	}
	e.ct.recompileDynamic()
	e.syncTables()
	// Refresh the precompiled head-of-line requests. Only heads whose
	// route row the event actually invalidated need recomputing: for an
	// unchanged (u, dst) entry the recompute is the identity, so the
	// per-entry change mask (EntryChanged, backed by the fault layer's
	// row-invalidation bitmap) lets untouched requests stand. With no mask
	// every active head is refreshed.
	for _, ui := range e.active {
		u := int(ui)
		dst := e.queues[u].front().dst
		if ch.EntryChanged == nil || ch.EntryChanged(u, int(dst)) {
			e.resolveHead(u, dst)
		}
	}
	if ch.EntryChanged != nil {
		// Only active nodes hold queued messages; order does not matter for
		// counting.
		for _, ui := range e.active {
			u := int(ui)
			q := &e.queues[u]
			for i := 0; i < q.len(); i++ {
				dst := int(q.at(i).dst)
				if !ch.EntryChanged(u, dst) {
					continue
				}
				disrupted = true
				if e.route[u*e.n+dst] != NoRoute {
					e.metrics.Reroutes++
				}
			}
		}
	}
	// Start (or re-baseline) the time-to-recover clock, but only when the
	// batch actually disturbed queued traffic: repairs on an idle network
	// (or events nobody was routing through) are not disruptions. Recovery
	// completes when the backlog next returns to its post-purge level.
	if !disrupted {
		return
	}
	if !e.recovering {
		e.recovering = true
		e.recoverStart = e.slot
	}
	e.recoverBaseline = e.backlog
}

// run resets the replica with cfg and executes a full scenario on it:
// `slots` slots of traffic generation plus up to `drain` extra slots to
// let queues empty, returning the metrics.
func (e *replica) run(traffic Traffic, slots, drain int, cfg Config) Metrics {
	e.reset(cfg)
	e.rngVirgin = false // the generation loop draws from the RNG
	for s := 0; s < slots; s++ {
		e.injBuf = traffic.Generate(e.injBuf[:0], s, e.n, e.rng)
		for _, inj := range e.injBuf {
			e.inject(inj.Src, inj.Dst)
		}
		e.step()
	}
	for s := 0; s < drain && e.backlog > 0; s++ {
		e.step()
	}
	m := e.metricsSnapshot()
	e.flushObs()
	return m
}

// finished reports whether a scenario of `slots` generation slots and
// `drain` drain budget is complete: the generation phase has run and
// either the backlog emptied or the drain budget is spent. This is
// exactly the loop exit condition of run, checked before each step, so
// ReplicaSet retirement matches solo runs slot for slot.
func (e *replica) finished(slots, drain int) bool {
	return e.slot >= slots && (e.backlog == 0 || e.slot >= slots+drain)
}

// Engine simulates a Topology slot by slot: the single-replica wrapper
// around the replica core, owning a private CompiledTopology. See
// ReplicaSet for running many replicas over one shared snapshot; both
// paths execute the identical step code.
type Engine struct {
	replica

	// OnDeliver, when non-nil, is invoked for every delivered message with
	// its final hop count and the delivery slot. It lets experiments record
	// per-(src,dst) path lengths — e.g. to cross-check the §2.5 fault bound
	// against kautz.RouteAvoiding — without burdening Metrics.
	OnDeliver func(msg Message, slot int)
}

// NewEngine compiles the topology and prepares a simulation over it. A
// topology that also implements DynamicTopology (e.g.
// faults.FaultedTopology) is reset to its pre-event state — so the
// compiled snapshot covers the full (pristine) structure — and polled for
// fault events every Step.
func NewEngine(topo Topology, cfg Config) *Engine {
	e := &Engine{}
	e.rng = rand.New(rand.NewSource(cfg.Seed))
	e.rngSeededFor = cfg.Seed
	e.rngVirgin = true
	e.attach(Compile(topo))
	if dyn, ok := topo.(DynamicTopology); ok {
		e.dyn = dyn
	}
	e.allocState()
	e.Reset(cfg)
	return e
}

// Reset re-arms the engine for a fresh scenario under cfg; see
// replica.reset. A run after Reset is bit-for-bit identical to a run on a
// newly constructed engine.
func (e *Engine) Reset(cfg Config) { e.reset(cfg) }

// Metrics returns a snapshot of the accumulated metrics, with Backlog and
// Slots refreshed; O(1).
func (e *Engine) Metrics() Metrics { return e.metricsSnapshot() }

// Backlog returns the number of currently queued messages, O(1). Drain
// loops test it directly instead of materializing a Metrics copy per slot.
func (e *Engine) Backlog() int { return e.backlog }

// Inject enqueues a message at its source, honoring MaxQueue.
func (e *Engine) Inject(src, dst int) { e.inject(src, dst) }

// Step advances the simulation by one slot; see replica.step.
func (e *Engine) Step() {
	e.onDeliver = e.OnDeliver
	e.step()
}

// Run resets the engine with cfg and executes a full scenario on it:
// `slots` slots of traffic generation plus up to `drain` extra slots to
// let queues empty, returning the metrics. All scratch — including the
// traffic-generation buffer — lives on the engine, so a warmed engine runs
// whole scenarios without allocating; results are bit-for-bit identical to
// sim.Run on a fresh engine.
func (e *Engine) Run(traffic Traffic, slots, drain int, cfg Config) Metrics {
	e.onDeliver = e.OnDeliver
	return e.run(traffic, slots, drain, cfg)
}

// SetParallel does nothing: the engine always steps serially. Only the
// perfbench harness still calls it; the next benchmark change removes
// that call and this method.
func (e *Engine) SetParallel(int) {}

// Close does nothing: an engine holds no goroutines or other resources.
// Only the perfbench harness still calls it; the next benchmark change
// removes that call and this method.
func (e *Engine) Close() {}

// txRequest is one node's wish to drive one coupler toward one next hop.
// delivers carries the precompiled delivers-here bit so Phase 4 never
// scans a head set.
type txRequest struct {
	node     int32
	coupler  int32
	nextHop  int32
	delivers bool
}

// rrNext advances a round-robin cursor past the granted node: (node+1)
// mod n without the divide (node is always in [0, n)).
func rrNext(node, n int32) int32 {
	if node+1 == n {
		return 0
	}
	return node + 1
}

// sortByRRKey orders request indices by their precomputed round-robin keys
// (distance of the node id from the coupler's cursor). Keys are computed
// once per candidate by the caller — not recomputed inside every
// comparison — and are permuted in lockstep. Insertion sort; candidate
// lists are small.
func sortByRRKey(idxs []int32, keys []int) {
	for a := 1; a < len(idxs); a++ {
		for b := a; b > 0 && keys[b] < keys[b-1]; b-- {
			idxs[b], idxs[b-1] = idxs[b-1], idxs[b]
			keys[b], keys[b-1] = keys[b-1], keys[b]
		}
	}
}

// Run executes a full simulation over a freshly compiled engine. Callers
// running many scenarios over one topology should construct the engine
// once and call Engine.Run per scenario instead (see internal/sweep).
func Run(topo Topology, traffic Traffic, slots, drain int, cfg Config) Metrics {
	return NewEngine(topo, cfg).Run(traffic, slots, drain, cfg)
}
