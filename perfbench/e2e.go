package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"otisnet/internal/obs"
)

// opOutcome is one measured op.
type opOutcome struct {
	dur       time.Duration
	points    int     // grid points answered
	nodeSlots float64 // simulated slots x N over computed points
	err       error
}

// driver runs one workload against the netsim binary.
type driver interface {
	// setup sets the workload up once (launch, readiness, warm-up op);
	// each call replaces the previous set-up.
	setup(k int) error
	// op runs measured op i (i >= 1).
	op(i int) opOutcome
	// cpuSeconds is the CPU time program processes have used so far in
	// measured ops.
	cpuSeconds() (float64, error)
	// peakRSSMB is the peak resident memory of any program process so far.
	peakRSSMB() (float64, error)
	// model is the simulated per-node throughput and mean latency of the
	// run's deterministic warm-up op.
	model() (thr, lat float64)
	// verify runs the checks that need in-process recomputation, after
	// the measurement window; it returns how many checks it ran and one
	// error per failed check.
	verify() (int, []error)
	close()
}

// env is what every run gets: the program binary, the run's scratch
// directory and the run parameters.
type env struct {
	bin     string
	scratch string
	seed    int64
	seconds float64
	log     io.Writer
}

// e2eRun is the untraced measurement of one workload.
type e2eRun struct {
	attempted, failed int
	metrics           metrics
	latencies         []float64 // ms per measured op
}

func runE2E(w workloadDef, e env) (*e2eRun, error) {
	var d driver
	switch w.kind {
	case kindCLI:
		d = &cliDriver{env: e, sc: w.cli}
	default:
		d = &serviceDriver{env: e, kind: w.kind}
	}
	defer d.close()
	r := &e2eRun{metrics: metrics{}}
	fail := func(err error) {
		r.failed++
		fmt.Fprintf(e.log, "perfbench: %s: %v\n", w.name, err)
	}

	var setups []float64
	for k := 0; k < setupRounds; k++ {
		t0 := time.Now()
		err := d.setup(k)
		setups = append(setups, time.Since(t0).Seconds())
		r.attempted++
		if err != nil {
			if _, ok := err.(checkError); !ok {
				return nil, err
			}
			fail(err)
		}
	}

	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var points int
	var nodeSlots, rss float64
	start := time.Now()
	for i := 1; i == 1 || time.Since(start).Seconds() < e.seconds; i++ {
		o := d.op(i)
		r.attempted++
		if o.err != nil {
			if _, ok := o.err.(checkError); !ok {
				return nil, o.err
			}
			fail(o.err)
			continue
		}
		r.latencies = append(r.latencies, float64(o.dur)/1e6)
		points += o.points
		nodeSlots += o.nodeSlots
		if i == rssOps {
			if rss, err = d.peakRSSMB(); err != nil {
				return nil, err
			}
		}
	}
	window := time.Since(start).Seconds()
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if rss == 0 {
		if rss, err = d.peakRSSMB(); err != nil {
			return nil, err
		}
	}
	checked, errs := d.verify()
	r.attempted += checked
	for _, err := range errs {
		fail(err)
	}

	thr, lat := d.model()
	m := r.metrics
	m.set("setup_s", "s", median(setups))
	m.set("op_p50_ms", "ms", median(r.latencies))
	m.set("points_per_s", "1/s", float64(points)/window)
	m.set("sim_node_slots_per_s", "1/s", nodeSlots/window)
	m.set("cpu_ms_per_point", "ms", ratio((cpu1-cpu0)*1000, float64(points)))
	m.set("peak_rss_mb", "MiB", rss)
	m.set("model.throughput_per_node", "1/slot", thr)
	m.set("model.latency_slots", "slots", lat)
	return r, nil
}

// rssOps is the measured op after which peak memory is read, so that
// memory a long-lived server keeps per job is compared over the same work
// however fast the host runs; runs with fewer ops read it at the end.
const rssOps = 40

// checkError marks an output check that failed: the op counts as failed,
// but the run goes on.
type checkError struct{ error }

func checkErr(format string, a ...any) error { return checkError{fmt.Errorf(format, a...)} }

// cliDriver runs one netsim process per op.
type cliDriver struct {
	env
	sc     cliScenario
	ref    string // warm-up output, repeated by every set-up
	refRes cliResult
	cpu    float64
	rss    float64
}

const cliTimeout = 120 * time.Second

func (c *cliDriver) run(seed int64) (cliResult, runResult, error) {
	rr, err := runProgram(c.bin, c.sc.args(seed), cliTimeout)
	c.rss = max(c.rss, rr.rssMB)
	if err != nil {
		return cliResult{}, rr, checkError{err}
	}
	res, err := parseCLI(rr.stdout)
	if err != nil {
		return res, rr, checkError{err}
	}
	return res, rr, nil
}

// setup runs the warm-up op: the same seed every time, so each set-up
// after the first is also the repeat check.
func (c *cliDriver) setup(k int) error {
	res, rr, err := c.run(deriveSeed(c.seed, 0, 0))
	if err != nil {
		return err
	}
	if k == 0 {
		c.ref, c.refRes = rr.stdout, res
		return nil
	}
	if rr.stdout != c.ref {
		return checkErr("repeated run with the same seed differs:\n%s\nvs\n%s", rr.stdout, c.ref)
	}
	return nil
}

func (c *cliDriver) op(i int) opOutcome {
	res, rr, err := c.run(deriveSeed(c.seed, 1, i))
	if err != nil {
		return opOutcome{err: err}
	}
	c.cpu += rr.cpu
	return opOutcome{dur: rr.wall, points: 1, nodeSlots: float64(res.slots) * float64(res.nodes)}
}

func (c *cliDriver) cpuSeconds() (float64, error) { return c.cpu, nil }
func (c *cliDriver) peakRSSMB() (float64, error)  { return c.rss, nil }
func (c *cliDriver) model() (float64, float64) {
	return c.refRes.throughputPerNode(), c.refRes.latency
}
func (c *cliDriver) verify() (int, []error) { return 0, nil }
func (c *cliDriver) close()                 {}

// serviceDriver runs jobs against netsim serve (and, for fleet-sharded,
// one netsim work process) over loopback HTTP, one job in flight.
type serviceDriver struct {
	env
	kind   kind
	base   string
	serve  *proc
	work   *proc
	client *http.Client
	book   *rowBook

	warm     []streamRow // warm-up job rows (model metrics)
	toVerify []verifyJob
}

// verifyJob is a served curve kept for the after-window comparison with
// an in-process computation of the same grid.
type verifyJob struct {
	payload, curve []byte
}

// verifyJobs is how many leading measured jobs, besides the warm-up job,
// have their curves recomputed in-process.
const verifyJobs = 2

func newHTTPClient(rt http.RoundTripper) *http.Client {
	if rt == nil {
		rt = &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 8, DisableCompression: true}
	}
	return &http.Client{Transport: rt, Timeout: 120 * time.Second}
}

func (s *serviceDriver) setup(k int) error {
	s.stopAll()
	dir := filepath.Join(s.scratch, fmt.Sprintf("setup%d", k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	port, err := freePort()
	if err != nil {
		return err
	}
	s.base = fmt.Sprintf("http://127.0.0.1:%d", port)
	if s.client == nil {
		s.client = newHTTPClient(nil)
	}
	args := []string{"serve", "-addr", fmt.Sprintf("127.0.0.1:%d", port)}
	if s.kind == kindServe {
		args = append(args, "-cachedir", filepath.Join(dir, "cache"))
	}
	if s.serve, err = startProc("serve", s.bin, args, filepath.Join(dir, "serve.log")); err != nil {
		return err
	}
	if err := s.waitReady(s.serve, func() bool {
		resp, err := s.client.Get(s.base + "/api/v1/cache/stats")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}); err != nil {
		return err
	}
	if s.kind == kindFleet {
		s.work, err = startProc("work", s.bin, []string{"work", "-server", s.base,
			"-workers", "2", "-goroutines", "1", "-poll", "10ms", "-cachedir", filepath.Join(dir, "workcache")},
			filepath.Join(dir, "work.log"))
		if err != nil {
			return err
		}
		if err := s.waitReady(s.work, func() bool { return s.liveWorkers() >= 2 }); err != nil {
			return err
		}
	}
	s.book = newRowBook()
	return s.job(0).err
}

// waitReady polls ready every 5ms for up to 30 s, failing early if p dies.
func (s *serviceDriver) waitReady(p *proc, ready func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !ready() {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up", p.name)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s", p.name)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// liveWorkers reads the coordinator's live-worker gauge.
func (s *serviceDriver) liveWorkers() int {
	resp, err := s.client.Get(s.base + "/api/v1/observe")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var o struct {
		Metrics obs.Snapshot `json:"metrics"`
	}
	if json.NewDecoder(resp.Body).Decode(&o) != nil {
		return 0
	}
	return int(o.Metrics.Gauges["netsim_coord_workers_live"])
}

func (s *serviceDriver) op(i int) opOutcome { return s.job(i) }

// job submits job i's grid, reads its stream to the end, fetches its
// curve and checks what came back.
func (s *serviceDriver) job(i int) opOutcome {
	spec := gridFor(s.kind, s.seed, i)
	payload := gridPayload(spec)
	points := gridPoints(spec)
	t0 := time.Now()
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if _, err := s.call("POST", "/api/v1/sweeps", payload, http.StatusAccepted, &st); err != nil {
		return opOutcome{err: err}
	}
	stream, err := s.call("GET", "/api/v1/sweeps/"+st.ID+"/stream", nil, http.StatusOK, nil)
	if err != nil {
		return opOutcome{err: err}
	}
	curve, err := s.call("GET", "/api/v1/sweeps/"+st.ID+"/curve", nil, http.StatusOK, nil)
	if err != nil {
		return opOutcome{err: err}
	}
	dur := time.Since(t0)

	rows, err := parseStream(stream)
	if err != nil {
		return opOutcome{err: checkError{err}}
	}
	if err := s.book.check(rows, points); err != nil {
		return opOutcome{err: checkError{err}}
	}
	var nodeSlots float64
	for _, r := range rows {
		if r.Cached {
			continue
		}
		n, err := nodesOf(r.Topology)
		if err != nil {
			return opOutcome{err: checkError{err}}
		}
		nodeSlots += float64(r.Slots) * float64(n)
	}
	if i == 0 {
		s.warm = rows
	}
	if i <= verifyJobs && (i > 0 || len(s.toVerify) == 0) {
		s.toVerify = append(s.toVerify, verifyJob{payload: payload, curve: curve})
	}
	return opOutcome{dur: dur, points: len(rows), nodeSlots: nodeSlots}
}

// call makes one request and returns the body, failing (as a check) on
// any status other than want.
func (s *serviceDriver) call(method, path string, body []byte, want int, out any) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, checkErr("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, checkErr("%s %s: %v", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, checkErr("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return nil, checkErr("%s %s: %v", method, path, err)
		}
	}
	return data, nil
}

func (s *serviceDriver) procs() []*proc {
	var ps []*proc
	for _, p := range []*proc{s.serve, s.work} {
		if p != nil {
			ps = append(ps, p)
		}
	}
	return ps
}

func (s *serviceDriver) cpuSeconds() (float64, error) {
	var t float64
	for _, p := range s.procs() {
		c, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		t += c
	}
	return t, nil
}

func (s *serviceDriver) peakRSSMB() (float64, error) {
	var m float64
	for _, p := range s.procs() {
		r, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		m = max(m, r)
	}
	return m, nil
}

// model averages per-node throughput and latency over the warm-up job's
// rows, which depend on the run seed only.
func (s *serviceDriver) model() (float64, float64) {
	var thr, lat float64
	for _, r := range s.warm {
		n, _ := nodesOf(r.Topology)
		thr += ratio(r.Throughput, float64(n))
		lat += r.AvgLatency
	}
	k := float64(max(len(s.warm), 1))
	return thr / k, lat / k
}

func (s *serviceDriver) verify() (int, []error) {
	var errs []error
	for _, v := range s.toVerify {
		if err := checkCurve(v.payload, v.curve); err != nil {
			errs = append(errs, err)
		}
	}
	return len(s.toVerify), errs
}

func (s *serviceDriver) stopAll() {
	// The fleet goes first, so no worker outlives its coordinator.
	s.work.stop()
	s.serve.stop()
	s.work, s.serve = nil, nil
}

func (s *serviceDriver) close() {
	s.stopAll()
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}
