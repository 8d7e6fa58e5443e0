package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"otisnet/internal/sweep"
	"otisnet/internal/sweepserver"
)

// setupRounds is how many times a run sets its workload up; setup_s is
// the median.
const setupRounds = 3

type kind int

const (
	kindCLI   kind = iota // one netsim process per op
	kindServe             // jobs on one netsim serve process
	kindFleet             // sharded jobs on netsim serve plus a netsim work fleet
)

// cliScenario is a netsim single run: the CLI flags an op passes, minus
// -seed, which every op derives from the run seed.
type cliScenario struct {
	topo               sweep.TopoSpec
	rate               float64
	slots, drain, maxQ int
}

// args renders the scenario as netsim flags, leaving every other flag
// at its default as a user would.
func (c cliScenario) args(seed int64) []string {
	a := []string{"-net", c.topo.Net}
	add := func(flag string, v int) {
		if v != 0 {
			a = append(a, flag, strconv.Itoa(v))
		}
	}
	add("-t", c.topo.T)
	add("-g", c.topo.G)
	add("-s", c.topo.S)
	add("-d", c.topo.D)
	add("-k", c.topo.K)
	a = append(a, "-rate", strconv.FormatFloat(c.rate, 'g', -1, 64))
	add("-maxq", c.maxQ)
	a = append(a, "-slots", strconv.Itoa(c.slots))
	return append(a, "-seed", strconv.FormatInt(seed, 10))
}

// cliDefaultDrain is netsim's -drain default.
const cliDefaultDrain = 2000

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	kind kind
	cli  cliScenario // kindCLI only
	// countOps is how many leading ops of a traced run the exact work
	// counts cover; the rest of the run only adds timings.
	countOps int
}

var workloads = []workloadDef{
	{
		name: "cli-light", kind: kindCLI, countOps: 2,
		why: "netsim single runs of SK(8,3,4) at rate 0.02: injection RNG and active-list stepping dominate; the parallel crew stays idle",
		cli: cliScenario{topo: sweep.TopoSpec{Net: "sk", S: 8, D: 3, K: 4}, rate: 0.02, slots: 20000, drain: cliDefaultDrain},
	},
	{
		name: "cli-heavy", kind: kindCLI, countOps: 1,
		why: "netsim single runs of deBruijn(2,12) at rate 0.2 with bounded queues: ring, arbitration, drops and route-table build dominate; the crew engages",
		cli: cliScenario{topo: sweep.TopoSpec{Net: "debruijn", D: 2, K: 12}, rate: 0.2, slots: 1000, drain: cliDefaultDrain, maxQ: 64},
	},
	{
		name: "serve-overlap", kind: kindServe, countOps: 4,
		why: "closed loop of HTTP sweep jobs on netsim serve, each overlapping half of the last: cache hits beside computes and journal writes",
	},
	{
		name: "fleet-sharded", kind: kindFleet, countOps: 4,
		why: "closed loop of 4-shard jobs with fresh seeds on netsim serve plus a netsim work fleet: the only path through the lease protocol",
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// gridShards is the shard count of every fleet-sharded job.
const gridShards = 4

// gridFor is job i's grid: the paper trio x five rates x both modes x two
// seeds, 60 points. serve-overlap job i uses seeds {b+i, b+i+1}, so it
// shares half its points with job i-1; fleet-sharded job i uses
// {b+2i, b+2i+1}, so every point is new.
func gridFor(k kind, runSeed int64, i int) sweepserver.GridSpec {
	b := deriveSeed(runSeed, 2, 0)
	seeds := []int64{b + int64(i), b + int64(i) + 1}
	g := sweepserver.GridSpec{
		Topologies: []sweep.TopoSpec{
			{Net: "sk", S: 6, D: 3, K: 2},
			{Net: "pops", T: 9, G: 8},
			{Net: "debruijn", D: 3, K: 4},
		},
		Rates: []float64{0.05, 0.1, 0.2, 0.3, 0.5},
		Modes: []string{"sf", "deflect"},
		Slots: 2000,
		Drain: 1000,
	}
	if k == kindFleet {
		seeds = []int64{b + 2*int64(i), b + 2*int64(i) + 1}
		g.Shards = gridShards
	}
	g.Seeds = seeds
	return g
}

// gridPoints is the point count of every job's grid.
func gridPoints(g sweepserver.GridSpec) int {
	return len(g.Topologies) * len(g.Rates) * len(g.Modes) * len(g.Seeds)
}

func gridPayload(g sweepserver.GridSpec) []byte {
	b, err := json.Marshal(g)
	if err != nil {
		panic(err)
	}
	return b
}
