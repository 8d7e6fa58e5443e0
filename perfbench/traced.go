package main

// The traced run repeats a workload in this process, calling each layer's
// public functions directly, with a span around every call and obs
// registry reads around every phase. The first countOps ops form the
// count phase: the exact work counts cover it alone, so they repeat bit
// for bit for a given seed. Timings cover every op of the run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"path"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"otisnet/internal/coordinator"
	"otisnet/internal/obs"
	"otisnet/internal/sim"
	"otisnet/internal/sweep"
	"otisnet/internal/sweepcache"
	"otisnet/internal/sweepserver"
	"otisnet/internal/workload"
)

// probeSlots caps the manually stepped probe that times Generate, Inject
// and Step one slot at a time.
const probeSlots = 2000

// countingSource counts the draws taken from a math/rand source.
type countingSource struct {
	src   rand.Source64
	draws int64
}

func (c *countingSource) Int63() int64    { c.draws++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64  { c.draws++; return c.src.Uint64() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// timedTraffic wraps a generator so Engine.Run's calls to Generate are
// timed and draw from a counting source. It does not declare
// sim.UniformRater, so the engine calls Generate every slot instead of
// its fused uniform loop; the draw sequence is the same.
type timedTraffic struct {
	inner      sim.Traffic
	rng        *rand.Rand
	ns, slots  int64
	injections int64
}

func (t *timedTraffic) Generate(buf []sim.Injection, slot, n int, _ *rand.Rand) []sim.Injection {
	t0 := time.Now()
	buf = t.inner.Generate(buf, slot, n, t.rng)
	t.ns += int64(time.Since(t0))
	t.slots++
	t.injections += int64(len(buf))
	return buf
}

// obsDelta is the change of the shared obs registry over a phase.
type obsDelta struct{ before, after obs.Snapshot }

func (d obsDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

func (d obsDelta) hist(name string) obs.HistogramSnapshot {
	a, b := d.after.Histograms[name], d.before.Histograms[name]
	h := obs.HistogramSnapshot{Bounds: a.Bounds, Buckets: make([]int64, len(a.Buckets))}
	for i := range a.Buckets {
		h.Buckets[i] = a.Buckets[i]
		if i < len(b.Buckets) {
			h.Buckets[i] -= b.Buckets[i]
		}
		h.Count += h.Buckets[i]
	}
	h.Sum = a.Sum - b.Sum
	return h
}

func (d obsDelta) histMean(name string) float64 {
	h := d.hist(name)
	return ratio(float64(h.Sum), float64(h.Count))
}

// tracer holds one traced run's recorder and accumulators.
type tracer struct {
	w     workloadDef
	e     env
	rec   *recorder
	ctx   context.Context
	fails []error

	// CLI accumulators.
	genNS, genSlots   float64
	draws, injections float64 // count phase
	probeInjected     float64
	runNS, runActive  float64

	// Sweep and service accumulators.
	keys, rows, streamBytes float64
	busyNS, runcachedNS     float64
	opens                   []float64
	runner                  sweep.Runner
	cache                   *sweepcache.Cache
	directBook              *rowBook
	svc                     *inproc

	points int
}

func (t *tracer) fail(err error) {
	t.fails = append(t.fails, err)
	fmt.Fprintf(t.e.log, "perfbench: %s (traced): %v\n", t.w.name, err)
}

// runTraced executes the traced run and returns its per-layer metrics.
func runTraced(w workloadDef, e env) (*e2eRun, error) {
	t := &tracer{w: w, e: e, rec: newRecorder(), ctx: context.Background()}
	defer t.close()
	if w.kind != kindCLI {
		if err := t.setupService(); err != nil {
			return nil, err
		}
	}
	var op func(i int) error
	switch w.kind {
	case kindCLI:
		op = t.cliOp
	case kindServe:
		op = t.serveJob
	default:
		op = t.fleetJob
	}

	start := time.Now()
	snap0 := obs.Default().Snapshot()
	var countDelta obsDelta
	ops := 0
	for i := 0; i < w.countOps || time.Since(start).Seconds() < e.seconds; i++ {
		if err := op(i); err != nil {
			if _, ok := err.(checkError); !ok {
				return nil, err
			}
			t.fail(err)
		}
		ops++
		if i == w.countOps-1 {
			countDelta = obsDelta{snap0, obs.Default().Snapshot()}
		}
	}
	elapsed := time.Since(start)
	all := obsDelta{snap0, obs.Default().Snapshot()}
	if w.kind == kindFleet {
		if err := t.svc.verifyFirst(); err != nil {
			t.fail(err)
		}
	}

	spans := t.rec.snapshot()
	if err := writeSpans(filepath.Join(e.scratch, "spans.tsv"), spans); err != nil {
		return nil, err
	}
	if w.kind == kindFleet {
		ops++ // the curve check
	}
	m := t.layerMetrics(summarize(spans), countDelta, all, elapsed, len(spans))
	return &e2eRun{attempted: ops, failed: len(t.fails), metrics: m}, nil
}

// cliOp repeats one netsim single run in process: build, compile, arm the
// crew as the CLI default does, run, then step a probe of the same
// scenario slot by slot.
func (t *tracer) cliOp(i int) error {
	sc := t.w.cli
	seed := deriveSeed(t.e.seed, 1, i)
	if i == 0 {
		seed = deriveSeed(t.e.seed, 0, 0)
	}
	op := t.rec.begin("netsim.op", -1, i)
	defer t.rec.end(op)

	b := t.rec.begin("topo.build", op, i)
	topo, err := sc.topo.Build()
	t.rec.end(b)
	if err != nil {
		return err
	}
	cfg := sim.Config{Seed: seed, MaxQueue: sc.maxQ}
	c := t.rec.begin("sim.compile", op, i)
	eng := sim.NewEngine(topo.Topo, cfg)
	t.rec.end(c)
	eng.SetParallel(0)
	defer eng.Close()

	n := topo.Topo.Nodes()
	inner := workload.Spec{}.New(sc.rate, n, topo.GroupSize)
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	tt := &timedTraffic{inner: inner, rng: rand.New(src)}
	before := obs.Default().Snapshot()
	r := t.rec.begin("sim.run", op, i)
	m := eng.Run(tt, sc.slots, sc.drain, cfg)
	runNS := float64(t.rec.end(r))
	d := obsDelta{before, obs.Default().Snapshot()}
	t.runNS += runNS
	t.runActive += d.counter("netsim_engine_active_node_slots_total")
	t.genNS += float64(tt.ns)
	t.genSlots += float64(tt.slots)
	if i < t.w.countOps {
		t.draws += float64(src.draws)
		t.injections += float64(tt.injections)
	}
	t.points++
	if m.Injected != m.Delivered+m.Dropped+m.Backlog {
		return checkErr("traced run does not conserve messages: %v", m)
	}

	eng.Reset(cfg)
	prng := rand.New(rand.NewSource(seed))
	var buf []sim.Injection
	p := t.rec.begin("sim.probe", op, i)
	for s := 0; s < min(sc.slots, probeSlots); s++ {
		g := t.rec.begin("workload.generate", p, i)
		buf = inner.Generate(buf[:0], s, n, prng)
		t.rec.end(g)
		in := t.rec.begin("sim.inject", p, i)
		for _, inj := range buf {
			eng.Inject(inj.Src, inj.Dst)
		}
		t.rec.end(in)
		t.probeInjected += float64(len(buf))
		st := t.rec.begin("sim.step", p, i)
		eng.Step()
		t.rec.end(st)
	}
	t.rec.end(p)
	return nil
}

// timedCache wraps the journal cache so each lookup and store is a span
// under the RunCached call that made it.
type timedCache struct {
	c          *sweepcache.Cache
	rec        *recorder
	parent, op int
}

func (c *timedCache) Lookup(key string) (sim.Metrics, bool) {
	s := c.rec.begin("sweepcache.lookup", c.parent, c.op)
	m, ok := c.c.Lookup(key)
	c.rec.end(s)
	return m, ok
}

func (c *timedCache) Store(key string, m sim.Metrics) {
	s := c.rec.begin("sweepcache.store", c.parent, c.op)
	c.c.Store(key, m)
	c.rec.end(s)
}

// openCache opens a journal cache in a fresh directory, timing the open.
func (t *tracer) openCache(name string) (*sweepcache.Cache, error) {
	t0 := time.Now()
	c, err := sweepcache.OpenShard(filepath.Join(t.e.scratch, name), name)
	t.opens = append(t.opens, float64(time.Since(t0))/1e6)
	return c, err
}

// setupService opens the direct path's cache and starts the in-process
// server (and, for fleet-sharded, its workers).
func (t *tracer) setupService() error {
	// The runner netsim serve builds with its default flags.
	t.runner = sweep.Runner{Replicas: sweep.AutoReplicas}
	t.directBook = newRowBook()
	var err error
	if t.w.kind == kindServe {
		if t.cache, err = t.openCache("direct"); err != nil {
			return err
		}
	}
	t.svc, err = startInproc(t)
	return err
}

func (t *tracer) close() {
	if t.svc != nil {
		t.svc.close()
	}
	if t.cache != nil {
		t.cache.Close()
	}
}

// serveJob runs job i through the sweep layer directly (expand,
// fingerprint, key, RunCached over a timed journal cache, aggregate) and
// then through the in-process server over loopback HTTP; the two curves
// must agree byte for byte.
func (t *tracer) serveJob(i int) error {
	spec := gridFor(kindServe, t.e.seed, i)
	payload := gridPayload(spec)
	op := t.rec.begin("sweep.job", -1, i)

	e := t.rec.begin("sweep.points_expand", op, i)
	points, err := sweepserver.PointsFromSpec(payload)
	t.rec.end(e)
	if err != nil {
		t.rec.end(op)
		return err
	}
	f := t.rec.begin("sweep.fingerprint", op, i)
	seen := map[sim.Topology]bool{}
	for _, p := range points {
		if !seen[p.Topology.Topo] {
			seen[p.Topology.Topo] = true
			sweep.TopologyFingerprint(p.Topology.Topo)
		}
	}
	t.rec.end(f)
	k := t.rec.begin("sweep.cachekey", op, i)
	for _, p := range points {
		p.CacheKey()
	}
	t.rec.end(k)
	t.keys += float64(len(points))

	cached := make([]bool, len(points))
	busy0 := obs.Default().Snapshot().Counters["netsim_sweep_worker_busy_ns_total"]
	r := t.rec.begin("sweep.runcached", op, i)
	results, err := t.runner.RunCached(t.ctx, points, &timedCache{c: t.cache, rec: t.rec, parent: r, op: i},
		func(j int, _ sweep.Result, hit bool) { cached[j] = hit })
	t.runcachedNS += float64(t.rec.end(r))
	t.busyNS += float64(obs.Default().Snapshot().Counters["netsim_sweep_worker_busy_ns_total"] - busy0)
	if err != nil {
		t.rec.end(op)
		return err
	}
	a := t.rec.begin("sweep.aggregate", op, i)
	curve := sweep.Aggregate(results)
	t.rec.end(a)
	t.rec.end(op)

	rows := make([]streamRow, len(results))
	for j, res := range results {
		rows[j] = streamRow{Index: j, Cached: cached[j], Record: sweep.NewRecord(res)}
	}
	if err := t.directBook.check(rows, len(points)); err != nil {
		return checkError{err}
	}
	var direct bytes.Buffer
	sweep.WriteCurveJSON(&direct, curve)
	served, err := t.svc.job(i, spec)
	if err != nil {
		return err
	}
	if !bytes.Equal(direct.Bytes(), served) {
		return checkErr("served curve of job %d differs from the directly computed curve", i)
	}
	return nil
}

func (t *tracer) fleetJob(i int) error {
	_, err := t.svc.job(i, gridFor(kindFleet, t.e.seed, i))
	return err
}

// frozenClock keeps the traced fleet's coordinator at one instant, so no
// lease expires and none is stolen however the host stalls: lease counts
// then depend on the grid alone. Workers still renew on their own timers.
type frozenClock struct{ t time.Time }

func (c frozenClock) Now() time.Time { return c.t }

// tracedLeaseTTL is the traced fleet's lease TTL: workers renew at a
// third of it, so shards of this size see renewals.
const tracedLeaseTTL = 60 * time.Millisecond

// inproc is an in-process sweepserver on a loopback listener, with an
// in-process coordinator.Worker fleet for fleet-sharded.
type inproc struct {
	t      *tracer
	srv    *http.Server
	base   string
	client *http.Client
	book   *rowBook
	cancel context.CancelFunc
	wg     sync.WaitGroup
	caches []*sweepcache.Cache

	// One job is in flight at a time, so every lease call belongs to the
	// job submitted last: curOp, submitted at curSubmit.
	mu          sync.Mutex
	curOp       int
	curSubmit   time.Time
	granted     map[string]bool
	lastAccept  map[string]time.Time
	leaseWaitMS []float64
	mergeMS     []float64
	acquires    float64
	empty       float64
	grants      atomic.Int64
	onPoints    atomic.Int64
	countGrants float64
	countPoints float64
	hb          *coordinator.Client
	first       verifyJob
}

func startInproc(t *tracer) (*inproc, error) {
	s := &inproc{t: t, book: newRowBook(), granted: map[string]bool{}, lastAccept: map[string]time.Time{}}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	var cache *sweepcache.Cache
	var err error
	if t.w.kind == kindServe {
		if cache, err = t.openCache("server"); err != nil {
			return nil, err
		}
		s.caches = append(s.caches, cache)
	}
	srv := sweepserver.New(sweep.Runner{Replicas: sweep.AutoReplicas}, cache)
	srv.Logger = quiet
	if t.w.kind == kindFleet {
		srv.Coord = coordinator.New(coordinator.Config{LeaseTTL: tracedLeaseTTL, StealAfter: time.Hour, Clock: frozenClock{time.Now()}})
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + l.Addr().String()
	s.srv = &http.Server{Handler: srv.Handler()}
	go s.srv.Serve(l)
	s.client = newHTTPClient(nil)
	if t.w.kind != kindFleet {
		return s, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	rpc := newHTTPClient(&timedTransport{s: s, base: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 8}})
	s.hb = &coordinator.Client{BaseURL: s.base, HTTPClient: rpc}
	for k := 0; k < 2; k++ {
		name := fmt.Sprintf("w%d", k)
		c, err := t.openCache(name)
		if err != nil {
			return nil, err
		}
		s.caches = append(s.caches, c)
		w := &coordinator.Worker{
			Client:  &coordinator.Client{BaseURL: s.base, HTTPClient: rpc},
			Build:   sweepserver.PointsFromSpec,
			Runner:  sweep.Runner{Workers: 1, Replicas: sweep.AutoReplicas},
			Cache:   c,
			Name:    name,
			Poll:    10 * time.Millisecond,
			Log:     quiet,
			OnPoint: func(string, int, bool) { s.onPoints.Add(1) },
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Run(ctx)
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for srv.Coord.Workers() < 2 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("in-process workers not live after 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return s, nil
}

// job submits one grid over HTTP and reads its stream and curve, each
// call a span; it returns the curve.
func (s *inproc) job(i int, spec sweepserver.GridSpec) ([]byte, error) {
	rec := s.t.rec
	op := rec.begin("server.job", -1, i)
	defer rec.end(op)
	t0 := time.Now()
	s.mu.Lock()
	s.curOp, s.curSubmit = i, t0
	s.mu.Unlock()
	sub := rec.begin("server.submit", op, i)
	body, err := s.call("POST", "/api/v1/sweeps", gridPayload(spec), http.StatusAccepted)
	rec.end(sub)
	if err != nil {
		return nil, err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, checkError{err}
	}
	str := rec.begin("server.stream", op, i)
	resp, err := s.client.Get(s.base + "/api/v1/sweeps/" + st.ID + "/stream")
	if err != nil {
		rec.end(str)
		return nil, checkError{err}
	}
	var stream bytes.Buffer
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 && stream.Len() == 0 {
			rec.end(rec.beginAt("server.first_row", op, i, t0))
		}
		stream.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	rec.end(str)
	streamEnd := time.Now()

	cv := rec.begin("server.curve", op, i)
	curve, err := s.call("GET", "/api/v1/sweeps/"+st.ID+"/curve", nil, http.StatusOK)
	rec.end(cv)
	if err != nil {
		return nil, err
	}

	rows, err := parseStream(stream.Bytes())
	if err != nil {
		return nil, checkError{err}
	}
	if err := s.book.check(rows, gridPoints(spec)); err != nil {
		return nil, checkError{err}
	}
	s.t.rows += float64(len(rows))
	s.t.streamBytes += float64(stream.Len())
	s.t.points += len(rows)

	if s.hb != nil {
		s.mu.Lock()
		if last, ok := s.lastAccept[st.ID]; ok {
			s.mergeMS = append(s.mergeMS, float64(streamEnd.Sub(last))/1e6)
		}
		s.mu.Unlock()
		// The idle worker's liveness beat, as a fleet worker between
		// shards would send it.
		if err := s.hb.Heartbeat(s.t.ctx, "w0"); err != nil {
			return nil, checkError{err}
		}
		if i == 0 {
			s.first = verifyJob{payload: gridPayload(spec), curve: curve}
		}
		if i == s.t.w.countOps-1 {
			s.countGrants, s.countPoints = float64(s.grants.Load()), float64(s.onPoints.Load())
		}
	}
	return curve, nil
}

// verifyFirst compares the first fleet job's merged curve with the
// in-process curve of the same grid.
func (s *inproc) verifyFirst() error {
	if s.first.payload == nil {
		return fmt.Errorf("no fleet job completed")
	}
	return checkCurve(s.first.payload, s.first.curve)
}

func (s *inproc) call(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, checkError{err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, checkError{err}
	}
	if resp.StatusCode != want {
		return nil, checkErr("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (s *inproc) close() {
	if s.cancel != nil {
		s.cancel()
		s.wg.Wait()
	}
	s.srv.Close()
	for _, c := range s.caches {
		c.Close()
	}
	s.client.CloseIdleConnections()
}

// timedTransport times every lease-protocol call the workers make (one
// span each, named coord.<endpoint>) and watches grants and accepted
// completions to time lease waits and merges.
type timedTransport struct {
	s    *inproc
	base http.RoundTripper
}

func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := tt.s
	name := "coord." + path.Base(req.URL.Path)
	var reqBody []byte
	if req.Body != nil {
		reqBody, _ = io.ReadAll(req.Body)
		req.Body.Close()
		req.Body = io.NopCloser(bytes.NewReader(reqBody))
	}
	id := s.t.rec.begin(name, -1, -1)
	sent := time.Now()
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		s.t.rec.end(id)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	s.t.rec.end(id)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch name {
	case "coord.acquire":
		s.acquires++
		if resp.StatusCode == http.StatusNoContent {
			s.empty++
			break
		}
		var g coordinator.Grant
		if json.Unmarshal(body, &g) == nil {
			s.grants.Add(1)
			s.t.rec.setOp(id, s.curOp)
			if !s.granted[g.Job] {
				s.granted[g.Job] = true
				s.leaseWaitMS = append(s.leaseWaitMS, float64(now.Sub(s.curSubmit))/1e6)
			}
		}
	case "coord.complete":
		var cr coordinator.CompleteRequest
		var out coordinator.CompleteResponse
		if json.Unmarshal(reqBody, &cr) == nil && json.Unmarshal(body, &out) == nil {
			s.t.rec.setOp(id, s.curOp)
			if out.Status == coordinator.StatusAccepted {
				// The coordinator accepts the shard somewhere between send
				// and reply; the merge can end before the reply arrives.
				s.lastAccept[cr.Job] = sent
			}
		}
	}
	return resp, nil
}

// spanMedian is the median duration of the named spans in the given
// unit (nanoseconds per unit).
func spanMedian(st spanStats, name string, unit float64) float64 {
	return median(st.dur[name]) / unit
}

// layerMetrics turns a traced run's spans, counters and accumulators into
// the per-layer metric set. Exact counts come from the count phase.
func (t *tracer) layerMetrics(st spanStats, cnt, all obsDelta, elapsed time.Duration, nspans int) metrics {
	m := metrics{}
	const ms, us = 1e6, 1e3

	// Layer timings.
	m.set("topo.build_ms", "ms", spanMedian(st, "topo.build", ms))
	m.set("sim.compile_ms", "ms", spanMedian(st, "sim.compile", ms))
	m.set("sim.run_ms", "ms", spanMedian(st, "sim.run", ms))
	m.set("sim.run_self_ms", "ms", ratio(t.runNS-t.genNS, float64(len(st.dur["sim.run"])))/ms)
	m.set("sim.step_ns_per_slot", "ns", ratio(total(st.dur["sim.step"]), float64(len(st.dur["sim.step"]))))
	m.set("sim.inject_ns_per_msg", "ns", ratio(total(st.dur["sim.inject"]), t.probeInjected))
	if t.w.kind == kindCLI {
		m.set("sim.ns_per_active_node_slot", "ns", ratio(t.runNS, t.runActive))
	} else {
		m.set("sim.ns_per_active_node_slot", "ns", ratio(all.counter("netsim_sweep_worker_busy_ns_total"), all.counter("netsim_engine_active_node_slots_total")))
	}
	m.set("sim.parallel_slot_ratio", "ratio", ratio(cnt.counter("netsim_sim_parallel_slots_total"), cnt.counter("netsim_engine_slots_total")))
	m.set("sim.parallel_imbalance_p50_us", "us", all.hist("netsim_sim_parallel_imbalance_ns").Quantile(0.5)/us)
	m.set("workload.generate_ns_per_slot", "ns", ratio(t.genNS, t.genSlots))
	m.set("workload.injections_per_draw", "ratio", ratio(t.injections, t.draws))

	// Exact counts.
	m.set("workload.rng_draws", "count", t.draws)
	for _, c := range []struct{ metric, counter string }{
		{"sim.slots", "netsim_engine_slots_total"},
		{"sim.active_node_slots", "netsim_engine_active_node_slots_total"},
		{"sim.touched_coupler_slots", "netsim_engine_touched_coupler_slots_total"},
		{"sim.injected", "netsim_engine_messages_injected_total"},
		{"sim.delivered", "netsim_engine_messages_delivered_total"},
		{"sim.dropped", "netsim_engine_messages_dropped_total"},
		{"sim.deflections", "netsim_engine_deflections_total"},
		{"sweep.points_computed", "netsim_sweep_points_completed_total"},
		{"sweep.points_cached", "netsim_sweep_points_cached_total"},
		{"sweepcache.hits", "netsim_sweepcache_hits_total"},
		{"sweepcache.misses", "netsim_sweepcache_misses_total"},
		{"sweepcache.stores", "netsim_sweepcache_stores_total"},
		{"coord.leases_granted", "netsim_coord_leases_granted_total"},
		{"coord.leases_stolen", "netsim_coord_leases_stolen_total"},
		{"coord.leases_expired", "netsim_coord_leases_expired_total"},
		{"coord.completions_stale", "netsim_coord_completions_stale_total"},
	} {
		m.set(c.metric, "count", cnt.counter(c.counter))
	}
	qd := cnt.hist("netsim_engine_queue_depth")
	m.set("sim.queue_depth_p50", "msgs", qd.Quantile(0.5))
	m.set("sim.queue_depth_p99", "msgs", qd.Quantile(0.99))
	m.set("sim.batch_replicas_mean", "replicas", cnt.histMean("netsim_engine_batch_replicas"))
	m.set("sweep.batch_points_mean", "points", cnt.histMean("netsim_sweep_batch_points"))
	hits, misses := cnt.counter("netsim_sweepcache_hits_total"), cnt.counter("netsim_sweepcache_misses_total")
	m.set("sweepcache.hit_ratio", "ratio", ratio(hits, hits+misses))

	// Sweep layer.
	m.set("sweep.points_expand_ms", "ms", spanMedian(st, "sweep.points_expand", ms))
	m.set("sweep.fingerprint_ms", "ms", spanMedian(st, "sweep.fingerprint", ms))
	m.set("sweep.cachekey_us", "us", ratio(total(st.dur["sweep.cachekey"]), t.keys)/us)
	m.set("sweep.runcached_ms", "ms", spanMedian(st, "sweep.runcached", ms))
	m.set("sweep.runcached_self_ms", "ms", median(st.self["sweep.runcached"])/ms)
	m.set("sweep.aggregate_ms", "ms", spanMedian(st, "sweep.aggregate", ms))
	m.set("sweep.pool_utilization", "ratio", ratio(t.busyNS, t.runcachedNS*float64(runtime.GOMAXPROCS(0))))
	m.set("sweepcache.open_ms", "ms", median(t.opens))
	m.set("sweepcache.lookup_us", "us", spanMedian(st, "sweepcache.lookup", us))
	m.set("sweepcache.store_us", "us", spanMedian(st, "sweepcache.store", us))

	// Server and coordinator, timed client-side.
	m.set("server.submit_ms", "ms", spanMedian(st, "server.submit", ms))
	m.set("server.first_row_ms", "ms", spanMedian(st, "server.first_row", ms))
	m.set("server.stream_ms", "ms", spanMedian(st, "server.stream", ms))
	m.set("server.curve_ms", "ms", spanMedian(st, "server.curve", ms))
	m.set("server.bytes_per_point", "bytes", ratio(t.streamBytes, t.rows))
	s := t.svc
	if s == nil {
		s = &inproc{}
	}
	m.set("coord.acquire_ms", "ms", spanMedian(st, "coord.acquire", ms))
	m.set("coord.acquire_empty_ratio", "ratio", ratio(s.empty, s.acquires))
	m.set("coord.renew_ms", "ms", spanMedian(st, "coord.renew", ms))
	m.set("coord.complete_ms", "ms", spanMedian(st, "coord.complete", ms))
	m.set("coord.heartbeat_ms", "ms", spanMedian(st, "coord.heartbeat", ms))
	m.set("coord.lease_wait_ms", "ms", median(s.leaseWaitMS))
	m.set("coord.merge_ms", "ms", median(s.mergeMS))
	m.set("worker.points_per_shard", "points", ratio(s.countPoints, s.countGrants))

	// The tracing itself.
	m.set("trace.points_per_s", "1/s", float64(t.points)/elapsed.Seconds())
	m.set("trace.spans", "count", float64(nspans))
	spanNS := spanCost()
	m.set("trace.span_ns", "ns", spanNS)
	m.set("trace.overhead_share", "ratio", float64(nspans)*spanNS/float64(elapsed))
	return m
}

// spanCost measures what recording one span costs, on a scratch recorder.
func spanCost() float64 {
	const n = 20000
	r := newRecorder()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("x", -1, 0))
	}
	return float64(time.Since(t0)) / n
}

// setOp assigns a span to an op once the op is known.
func (r *recorder) setOp(id, op int) {
	r.mu.Lock()
	r.spans[id].Op = op
	r.mu.Unlock()
}
